import itertools
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import winfree as wf
from winfree import cli
from winfree.cli import main


def run_cli(args, monkeypatch=None, env=None):
    return main(args)


def test_critical_coupling_command(capsys):
    assert main(["critical-coupling", "--omega", "1,1"]) == 0
    out = capsys.readouterr().out
    assert out.strip().startswith("0.7698003")


def test_simulate_command(tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    summary = tmp_path / "summary.json"
    code = main([
        "simulate", "--omega", "0.1,-0.1", "--kappa", "3", "--horizon", "30",
        "--sample-stride", "0.5", "--seed", "1",
        "--trajectory-output", str(traj), "--output", str(summary),
    ])
    assert code == 0
    header = traj.read_text().splitlines()[0]
    assert header == "t,theta_1,theta_2,R"
    data = json.loads(summary.read_text())
    assert data["regime"] == "CompleteDeath"
    assert len(data["rotation_numbers"]) == 2
    assert all(data["death_flags"])


def test_simulate_with_json_config(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "omega": [0.1, -0.1], "kappa": 0.2, "horizon": 30.0,
        "sample_stride": 0.5, "seed": 2,
        "trajectory_output": str(tmp_path / "t.csv"),
        "output": str(tmp_path / "s.json"),
    }))
    # flag overrides JSON: kappa 3 forces death
    assert main(["simulate", "--config", str(cfg_path), "--kappa", "3"]) == 0
    data = json.loads((tmp_path / "s.json").read_text())
    assert data["regime"] == "CompleteDeath"


def test_equilibria_command(tmp_path):
    out = tmp_path / "eq.json"
    assert main(["equilibria", "--omega", "0.1", "--kappa", "1", "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["count"] == 2
    rs = sorted(e["R"] for e in data["equilibria"])
    assert rs[0] == pytest.approx(0.17634, abs=1e-4)
    assert rs[1] == pytest.approx(1.99875, abs=1e-4)


def test_bounds_command(capsys):
    assert main(["bounds", "--kind", "SincosTime", "--n", "800",
                 "--kappa", "6", "--epsilon", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["T0"] == pytest.approx(0.40156699, abs=1e-6)


def test_montecarlo_command_deterministic(tmp_path):
    args = ["montecarlo", "--kind", "order-param-cdf", "--n", "8",
            "--t-level", "0.5", "--samples", "400", "--seed", "3"]
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(args + ["--output", str(out1), "--workers", "1"]) == 0
    assert main(args + ["--output", str(out2), "--workers", "2"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    assert data["dominated"] in (True, None)


def test_sweep_command(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--kappa-grid", "0.0,3.0", "--gamma-grid", "0.5",
                 "--n", "10", "--horizon", "40", "--seed", "0",
                 "--output", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "kappa,gamma,regime,death_fraction,mean_R_final"
    cells = {tuple(l.split(",")[:2]): l.split(",") for l in lines[1:]}
    zero_row = [v for k, v in cells.items() if float(k[0]) == 0.0][0]
    big_row = [v for k, v in cells.items() if float(k[0]) == 3.0][0]
    assert float(zero_row[3]) == 0.0  # no death without coupling
    assert big_row[2] == "CompleteDeath"


def test_verify_command(capsys):
    code = main(["verify", "--omega", "0.02,-0.02,0.01", "--kappa", "3",
                 "--mu", "0.5", "--horizon", "40", "--seed", "4"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["all_ok"] is True


def test_verify_exits_2_where_kappa_rounds_onto_its_threshold(capsys):
    # kappa is the next float above the threshold, where the entrance time's
    # denominator kappa*rate - omega_max rounds to 0.0
    code = main(["verify", "--omega=-0.180290733619072,0.2652678663038987,-0.08093389905310286",
                 "--initial=-0.789009440859541,0.25821630307941845,0.8543091061357349",
                 "--kappa", "0.24004241589510336", "--mu", "0.5", "--horizon", "2", "--sample-stride", "0.5"])
    assert code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("configuration error: hypothesis kappa > omega_max/((R0-mu)*sqrt(mu*(2-mu))) fails")


def test_verify_prints_null_where_the_entrance_time_overflows(capsys):
    # kappa*rate - omega_max is subnormal, so pi over it overflows: the JSON
    # holds null, where it used to hold the non-JSON token Infinity
    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")

    code = main(["verify", "--omega", "0,0", "--kappa", "1e-320", "--mu", "0.9", "--horizon", "2",
                 "--sample-stride", "0.5"])
    assert code == 0
    data = json.loads(capsys.readouterr().out, parse_constant=refuse)
    assert data["details"]["entrance_time"] is None


def test_kappa_pc_command(capsys):
    code = main(["kappa-pc", "--omega", "0.3,-0.3",
                 "--horizon", "120", "--seed", "5"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    # the pathwise threshold dominates kappa_c asymptotically; at a finite
    # horizon the death detector can fire slightly early near the fold
    kc = wf.critical_coupling(np.array([0.3, -0.3]))
    assert data["kappa_pc"] >= kc - 0.05
    assert data["horizon_dependent"] is True


@pytest.mark.parametrize("horizon, zero", [("20", True), ("22", False)])
def test_kappa_pc_is_zero_when_no_phase_can_turn_within_the_horizon(capsys, horizon, zero):
    # max|omega| * horizon = 6 < 2 pi at T=20: even uncoupled, no phase band
    # reaches 2 pi, so every coupling dies and kappa_pc is 0.0 (exit 0); at
    # T=22 (6.6 > 2 pi) the fastest oscillator turns and kappa_pc is positive
    assert main(["kappa-pc", "--omega", "0.3,-0.2,0.1", "--horizon", horizon, "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert ('"kappa_pc": 0.0\n' in out) is zero, out
    assert json.loads(out)["kappa_pc"] >= 0.0


def test_winfree_seed_env_override(tmp_path, monkeypatch, capsys):
    args = ["montecarlo", "--kind", "order-param-cdf", "--n", "5",
            "--t-level", "0.5", "--samples", "200", "--seed", "1"]
    monkeypatch.setenv("WINFREE_SEED", "42")
    assert main(args) == 0
    with_env = capsys.readouterr().out
    monkeypatch.delenv("WINFREE_SEED")
    assert main(args[:-1] + ["42"]) == 0
    explicit = capsys.readouterr().out
    assert with_env == explicit


def test_exit_code_config_error(tmp_path, capsys):
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad)]) == 2
    assert main(["simulate", "--omega", "0.1,oops"]) == 2


def test_exit_code_integration_failure(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["simulate", "--omega", "1e155,0", "--kappa", "1e300",
                 "--horizon", "1"])
    assert code == 3
    # partial trajectory still written
    assert (tmp_path / "trajectory.csv").exists()


def test_pathwise_critical_coupling_function():
    cfg = wf.SystemConfig(n=2, omega=np.array([0.3, -0.3]), kappa=1.0)
    opts = wf.dp45_options(horizon=120.0, sample_stride=1.0,
                           abs_tol=1e-7, rel_tol=1e-7, max_dt=0.5)
    initial = np.array([0.5, -0.5])
    k_pc = wf.estimate_pathwise_critical_coupling(cfg, wf.sinusoidal(), initial, opts)
    upper, _ = wf.toy_thresholds(wf.sinusoidal(), cfg, [0, 1])
    assert 0.0 <= k_pc <= upper
    # dies comfortably above, not at zero coupling
    assert k_pc > 0.0


def test_pathwise_critical_coupling_zero_frequencies():
    cfg = wf.SystemConfig(n=2, omega=np.zeros(2), kappa=1.0)
    opts = wf.dp45_options(horizon=20.0, sample_stride=1.0)
    val = wf.estimate_pathwise_critical_coupling(cfg, wf.sinusoidal(), np.array([0.1, -0.1]), opts)
    assert val == 0.0


def test_internal_value_error_is_not_a_configuration_error(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr(wf.integrate, "simulate", broken)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match="internal bug"):
        main(["simulate", "--omega", "0.1,-0.1", "--kappa", "3", "--horizon", "10"])


def test_configuration_errors_name_the_setting(tmp_path, monkeypatch, capsys):
    assert main(["bounds", "--kind", "SincosTime", "--n", "800", "--epsilon", "1"]) == 2
    assert "missing required setting: kappa" in capsys.readouterr().err
    cfg_path = tmp_path / "custom.json"
    cfg_path.write_text(json.dumps({"family": "custom", "omega": [0.1, -0.1]}))
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    assert "influence_table" in capsys.readouterr().err
    monkeypatch.setenv("WINFREE_SEED", "seven")
    assert main(["critical-coupling", "--omega", "1,1"]) == 2
    assert "WINFREE_SEED" in capsys.readouterr().err


def _env_with_src():
    src = os.path.dirname(os.path.dirname(wf.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("args", [
    ["--max-dt", "nan"], ["--abs-tol", "nan"], ["--horizon", "nan"], ["--horizon", "inf"],
    ["--sample-stride", "nan"], ["--dt", "nan", "--method", "rk4_fixed"],
    ["--horizon", "1e300"], ["--horizon", "1", "--sample-stride", "5e-324"], ["--dt", "nan"],
], ids=["max_dt", "abs_tol", "horizon_nan", "horizon_inf", "sample_stride", "dt", "horizon_huge", "sample_stride_tiny",
        "dt_unread_by_dp45"])
def test_non_finite_solver_settings_exit_2(args):
    # a subprocess with a timeout: a NaN step size used to loop forever, and a
    # sample grid past integrate.MAX_SAMPLES is refused before it is built
    out = subprocess.run([sys.executable, "-m", "winfree.cli", "simulate", "--n", "3", "--kappa", "1", *args],
                         env=_env_with_src(), capture_output=True, text=True, timeout=60)
    assert out.returncode == 2 and out.stderr.startswith("configuration error")


def test_non_finite_escape_horizon_exits_2():
    out = subprocess.run([sys.executable, "-m", "winfree.cli", "montecarlo", "--kind", "escape", "--n", "3",
                          "--kappa", "1", "--samples", "4", "--t-horizon", "nan"],
                         env=_env_with_src(), capture_output=True, text=True, timeout=60)
    assert out.returncode == 2 and "NaN" in out.stderr


def test_huge_escape_horizon_exits_2():
    # the escape estimator sets the horizon through dataclasses.replace, which checks it again
    out = subprocess.run([sys.executable, "-m", "winfree.cli", "montecarlo", "--kind", "escape", "--n", "3",
                          "--kappa", "1", "--samples", "4", "--t-horizon", "1e300"],
                         env=_env_with_src(), capture_output=True, text=True, timeout=60)
    assert out.returncode == 2 and out.stderr.startswith("configuration error") and "sample_stride" in out.stderr


@pytest.mark.parametrize("argv", [
    ["kappa-pc", "--n", "3", "--initial", "inf,0,0", "--horizon", "2"],
    ["simulate", "--n", "3", "--kappa", "1", "--initial", "nan,0,0", "--horizon", "2"],
    ["kappa-pc", "--n", "3", "--omega", "0,0,0", "--initial", "inf,0,0", "--horizon", "2"],
], ids=["kappa_pc_inf", "simulate_nan", "kappa_pc_zero_omega"])
def test_non_finite_initial_state_exits_2(tmp_path, monkeypatch, capsys, argv):
    # kappa-pc used to print the unbisected upper end (0.0 at omega = 0) and simulate to exit 3
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.err.startswith("configuration error") and "finite" in out.err, out.err
    assert out.out == "" and list(tmp_path.iterdir()) == []


_READS_THE_SOLVER = {
    "simulate": ["simulate", "--n", "3", "--kappa", "1"],
    "sweep": ["sweep", "--n", "3", "--kappa-grid", "1", "--gamma-grid", "0.5"],
    "montecarlo": ["montecarlo", "--kind", "death", "--n", "3", "--kappa", "1", "--samples", "2"],
    "verify": ["verify", "--omega", "0.02,-0.02,0.01", "--kappa", "3"],
    "kappa-pc": ["kappa-pc", "--n", "3"],
}


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command", _READS_THE_SOLVER)
def test_unknown_solver_method_exits_2(tmp_path, monkeypatch, capsys, command, via):
    # every method but rk4_fixed used to run as DP45
    monkeypatch.chdir(tmp_path)
    written = []
    extra = ["--method", "rk45"]
    if via == "config":
        (tmp_path / "run.json").write_text(json.dumps({"method": "rk45"}))
        written, extra = ["run.json"], ["--config", "run.json"]
    assert main([*_READS_THE_SOLVER[command], *extra]) == 2
    out = capsys.readouterr()
    assert "unknown solver method: rk45" in out.err and out.out == ""
    assert [p.name for p in tmp_path.iterdir()] == written


def test_rk4_ignores_the_dp45_settings(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--n", "3", "--kappa", "1", "--horizon", "2", "--method", "rk4_fixed",
                 "--abs-tol", "0"]) == 0


def test_rk4_step_whose_fourth_power_overflows(tmp_path, monkeypatch, capsys):
    # the rk4 tolerance dt**4 is inf from dt ~ 1e77 up, not an OverflowError;
    # finite values are the float power itself
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["simulate", "--n", "3", "--kappa", "1", "--horizon", "2", "--method", "rk4_fixed",
                     "--dt", "1e300"]) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert wf.rk4_options(1e300, 2.0, 1.0).tolerance == float("inf")
    assert wf.rk4_options(0.01, 2.0, 1.0).tolerance == 0.01**4


def test_import_winfree_leaves_cli_unloaded():
    code = "import sys, winfree; print('argparse' in sys.modules, 'winfree.cli' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=_env_with_src(), capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False"]


def test_bounds_config_values_are_converted(tmp_path, capsys):
    def bounds(delta):
        path = tmp_path / "bounds.json"
        path.write_text(json.dumps({"kind": "EscapeMeasure", "n": 10, "delta": delta, "kappa": 2, "t_horizon": 1}))
        return main(["bounds", "--config", str(path)])

    assert bounds(0.5) == 0
    numeric = json.loads(capsys.readouterr().out)
    assert bounds("0.5") == 0
    assert json.loads(capsys.readouterr().out) == numeric
    assert bounds("oops") == 2
    assert "delta" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [3, 4])
@pytest.mark.parametrize("epsilon", [0.1, 0.5, 1.0])
def test_main_theorem_death_dominates_sincos_bound(capsys, seed, epsilon):
    # kappa = (2 + eps) * max|omega|: at every N the death fraction must reach
    # the SincosMain lower bound minus 3 SE, read from the command's own verdict
    for n in (5, 20, 80):
        omega = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
        kappa = (2.0 + epsilon) * float(np.max(np.abs(omega)))
        code = main(["montecarlo", "--kind", "death", "--omega=" + ",".join(f"{w:.17g}" for w in omega),
                     "--kappa", f"{kappa:.17g}", "--samples", "32", "--seed", str(seed),
                     "--horizon", "50", "--sample-stride", "1", "--abs-tol", "1e-6", "--rel-tol", "1e-6",
                     "--max-dt", "0.5", "--output", "-"])
        assert code == 0, n
        data = json.loads(capsys.readouterr().out)
        assert data["bound"] == pytest.approx(1.0 - np.exp(-epsilon**2 * n / 25.0)), n
        assert data["dominates"] is True, (n, data)
        lo, hi = data["wilson_95"]
        assert lo <= data["estimate"] <= hi, n


def test_montecarlo_verdict_follows_bound_direction(capsys):
    # death is checked against the SincosMain lower bound, the order-parameter
    # CDF and the escape measure against upper bounds; the other key is null
    omega = np.random.default_rng(3).uniform(-1.0, 1.0, 20)
    kappa = 2.5 * float(np.max(np.abs(omega)))
    runs = [
        ("death", ["--omega=" + ",".join(f"{w:.17g}" for w in omega), "--kappa", f"{kappa:.17g}",
                   "--samples", "32", "--seed", "3", "--horizon", "50", "--sample-stride", "1",
                   "--abs-tol", "1e-6", "--rel-tol", "1e-6", "--max-dt", "0.5"]),
        ("order-param-cdf", ["--n", "10", "--t-level", "0.5", "--samples", "2000", "--seed", "1"]),
        ("escape", ["--omega", "0,0,0,0,0,0", "--kappa", "2", "--delta", "0.5", "--t-horizon", "5",
                    "--samples", "64", "--seed", "4"]),
        # a stride above the default horizon 500 but within --t-horizon, the horizon escape integrates to
        ("escape", ["--n", "3", "--kappa", "1", "--samples", "2", "--t-horizon", "1000", "--sample-stride", "600"]),
    ]
    for kind, args in runs:
        assert main(["montecarlo", "--kind", kind, *args, "--output", "-"]) == 0
        data = json.loads(capsys.readouterr().out)
        if kind == "death":
            assert data["dominates"] is True and data["dominated"] is None, data
        else:
            assert data["dominates"] is None and isinstance(data["dominated"], bool), data


@pytest.mark.parametrize("args, name", [
    (["--kind", "SincosMain", "--n", "50", "--epsilon", "0.5", "--kappa", "2", "--omega-max", "-1"], "omega_max"),
    (["--kind", "KappaLarge", "--n", "10", "--c-mu", "0.5", "--beta", "0.5", "--kappa", "50",
      "--omega-max", "-1"], "omega_max"),
    (["--kind", "QuantIS", "--n", "10", "--kappa", "1", "--t-horizon", "1", "--delta", "2"], "delta"),
])
def test_bounds_reject_out_of_range_inputs(capsys, args, name):
    # unchecked, a negative omega_max reaches a fractional power (a complex
    # result) and a delta above I_star gives a certain-success bound
    assert main(["bounds"] + args) == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("spelling", ["space", "equals"])
def test_vector_options_take_a_negative_first_entry(tmp_path, capsys, spelling):
    # argparse reads "-0.5,0.2" as a flag unless main joins it to its option
    def opt(name, value):
        return [f"{name}={value}"] if spelling == "equals" else [name, value]

    assert main(["critical-coupling", *opt("--omega", "-0.5,0.2")]) == 0
    assert capsys.readouterr().out == f"{wf.critical_coupling(np.array([-0.5, 0.2])):.10g}\n"
    summary = tmp_path / "summary.json"
    assert main(["simulate", *opt("--omega", "-0.1,0.1"), *opt("--initial", "-1,1"), "--kappa", "3",
                 "--horizon", "5", "--trajectory-output", str(tmp_path / "t.csv"), "--output", str(summary)]) == 0
    traj = tmp_path / "t.csv"
    assert traj.read_text().splitlines()[1].split(",")[1:3] == ["-1", "1"]
    sweep = tmp_path / "sweep.csv"
    assert main(["sweep", "--n", "4", *opt("--kappa-grid", "-1,0.3"), *opt("--gamma-grid", "-0.5,0.5"),
                 "--horizon", "5", "--output", str(sweep)]) == 0
    cells = [line.split(",")[:2] for line in sweep.read_text().splitlines()[1:]]
    assert cells == [["-1", "-0.5"], ["0.29999999999999999", "-0.5"], ["-1", "0.5"], ["0.29999999999999999", "0.5"]]


@pytest.mark.parametrize("args, name", [
    (["--kind", "QuantIS", "--n", "10", "--kappa", "1", "--t-horizon", "1", "--delta", "0.1", "--i-star", "1e300"],
     "I_star"),
    (["--kind", "GeneralMaincor", "--n", "10", "--c-mu", "0.5", "--beta", "0.5", "--r-star", "1e300", "--sup-i", "1"],
     "R_star"),
    (["--kind", "GeneralMaincor", "--n", "10", "--r-star", "0.5", "--sup-i", "1e-300"], "R_star"),
    # the decay rate kappa * N * epsilon (or delta) underflows to 0
    (["--kind", "SincosTime", "--n", "10", "--epsilon", "1e-300", "--kappa", "1e-300", "--t-horizon", "2"], "kappa"),
    (["--kind", "EscapeMeasure", "--n", "10", "--delta", "1e-300", "--kappa", "1e-300", "--t-horizon", "1"], "kappa"),
])
def test_bounds_reject_overflowing_inputs(capsys, args, name):
    # unchecked, these squares overflow (OverflowError) or vanish (ZeroDivisionError)
    assert main(["bounds"] + args) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and name in err


@pytest.mark.parametrize("args", [
    ["--kind", "QuantIS", "--n", "10", "--kappa", "1", "--t-horizon", "1", "--i-star", "1e300", "--sup-i", "1e300"],
    ["--kind", "GeneralMaincor", "--n", "10", "--r-star", "1e300", "--sup-i", "1e300"],
    ["--kind", "GeneralMaincor", "--n", "10", "--r-star", "1e-300", "--sup-i", "1e-300"],
])
def test_bounds_stay_finite_at_extreme_scales(capsys, args):
    # the formulas square only R*/sup I and I*/sup I, so equal extreme values stay finite
    assert main(["bounds"] + args + ["--output", "-"]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    assert 0.0 < value <= 1.0


_PACKAGE_ERRORS = [name for name, cls in vars(wf.errors).items()
                   if isinstance(cls, type) and issubclass(cls, Exception) and cls.__module__ == wf.errors.__name__
                   and cls is not wf.errors.IntegrationFailure]


@pytest.mark.parametrize("name", _PACKAGE_ERRORS)
def test_every_input_error_exits_2(monkeypatch, capsys, name):
    # main catches the base class, so an error class added to winfree.errors
    # exits 2 without the CLI listing it; IntegrationFailure alone exits 3
    cls = getattr(wf.errors, name)
    assert issubclass(cls, wf.errors.InputError)

    def raising(omega):
        raise cls("bad input")

    monkeypatch.setattr(wf.equilibria, "critical_coupling", raising)
    assert main(["critical-coupling", "--omega", "1,1"]) == 2
    assert capsys.readouterr().err.startswith("configuration error: bad input")


@pytest.mark.parametrize("argv, flag", [
    (["equilibria", "--omega", "0.1", "--family", "power_cosine"], "--family"),
    (["critical-coupling", "--omega", "1,1", "--kappa", "5"], "--kappa"),
    (["kappa-pc", "--omega", "0.3,-0.3", "--kappa", "1"], "--kappa"),
    (["montecarlo", "--kind", "order-param-cdf", "--epsilon", "0.3"], "--epsilon"),
    (["simulate", "--omega", "0.1", "--samples", "9"], "--samples"),
    # verify checks the sinusoidal theorem only
    (["verify", "--omega", "0.1", "--family", "power_cosine"], "--family"),
    # abbreviations are off: a flag the subcommand does not take is not a prefix of one it does
    (["sweep", "--kappa", "3", "--gamma-grid", "0.5"], "--kappa"),
    (["bounds", "--kind", "SincosMain", "--omega", "1"], "--omega"),
    (["critical-coupling", "--om", "-0.5,0.2"], "--om"),
])
def test_subcommands_refuse_settings_they_do_not_read(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2 and flag in capsys.readouterr().err


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("kind, key, value", [
    ("order-param-cdf", "method", "rk45"),
    ("order-param-cdf", "dt", "nan"),
    ("order-param-cdf", "kappa", "3"),
    ("order-param-cdf", "delta", "0.2"),
    ("order-param-cdf", "omega", "0.1,0.2,0.3"),
    ("death", "t_level", "0.3"),
    ("death", "t_horizon", "2"),
    ("escape", "horizon", "5"),
    ("escape", "t_level", "0.5"),
])
def test_montecarlo_kinds_refuse_settings_they_do_not_read(tmp_path, monkeypatch, capsys, kind, key, value, via):
    # the kinds share one flag row; order-param-cdf used to ignore every system and solver setting
    monkeypatch.chdir(tmp_path)
    argv = ["montecarlo", "--kind", kind, "--n", "3", "--samples", "2"]
    if via == "flag":
        argv += ["--" + key.replace("_", "-"), value]
    else:
        (tmp_path / "run.json").write_text(json.dumps({key: value}))
        argv += ["--config", "run.json"]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.err == f"configuration error: montecarlo kind {kind} does not read: {key}\n" and out.out == ""


def test_each_subcommand_takes_exactly_its_row():
    parser = cli.build_parser()
    for name, row in cli._COMMANDS.items():
        dests = set(vars(parser.parse_args([name]))) - {"command", "func"}
        assert dests == {*row, "config", "seed", "output"}, name


def test_config_keys_are_checked_against_every_row(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"omega": [0.1, -0.1], "kapa": 3}))
    assert main(["simulate", "--config", str(path)]) == 2
    assert "kapa" in capsys.readouterr().err
    # a key that only other subcommands read is dropped, so one file serves simulate and equilibria
    path.write_text(json.dumps({"omega": [0.1], "kappa": 1, "horizon": 30}))
    assert main(["equilibria", "--config", str(path)]) == 0
    from_file = capsys.readouterr().out
    assert main(["equilibria", "--omega", "0.1", "--kappa", "1"]) == 0
    assert capsys.readouterr().out == from_file


def test_family_flags_convert_like_config_keys(tmp_path, capsys):
    base = ["simulate", "--omega", "0.1,-0.1", "--kappa", "3", "--horizon", "10",
            "--trajectory-output", str(tmp_path / "t.csv"), "--output", "-"]
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"family": "power_cosine", "power": "2"}))
    assert main(base + ["--config", str(path)]) == 0
    from_file = capsys.readouterr().out
    assert main(base + ["--family", "power_cosine", "--power", "2"]) == 0
    assert capsys.readouterr().out == from_file
    assert main(base + ["--family", "power_cosine", "--power", "1"]) == 0
    assert capsys.readouterr().out != from_file


# arguments valid for every family, so a kind exits 0 exactly when its row lists the family
_BOUND_ARGS = {
    "SincosMain": ["--n", "50", "--epsilon", "0.5"],
    "SincosTime": ["--n", "50", "--epsilon", "0.5", "--kappa", "2"],
    "OrderParamCDF": ["--n", "10", "--t-level", "0.5"],
    "GeneralMaincor": ["--n", "10", "--r-star", "0.5"],
    "KappaLarge": ["--n", "10", "--c-mu", "0.5", "--beta", "0.5", "--kappa", "50", "--omega-max", "1"],
    "QuantIS": ["--n", "10", "--kappa", "1", "--t-horizon", "1", "--delta", "0.1"],
    "EscapeMeasure": ["--n", "10", "--delta", "0.5", "--kappa", "2", "--t-horizon", "1"],
}


def _family_args(family, tmp_path):
    if family == "custom":
        th = np.linspace(-np.pi, np.pi, 33)
        for name, values in (("i.csv", 1.0 + np.cos(th)), ("s.csv", -np.sin(th))):
            (tmp_path / name).write_text("theta,value\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(th, values)))
        return ["--influence-table", str(tmp_path / "i.csv"), "--sensitivity-table", str(tmp_path / "s.csv")]
    return {"sinusoidal": [], "power_cosine": ["--power", "3"], "rectified_poisson": ["--r-pk", "0.5"]}[family]


@pytest.mark.parametrize("family", list(wf.model.FAMILIES))
@pytest.mark.parametrize("kind", list(wf.thresholds.BOUNDS))
def test_bounds_take_only_the_families_of_their_row(tmp_path, capsys, kind, family):
    assert set(_BOUND_ARGS) == set(wf.thresholds.BOUNDS)
    code = main(["bounds", "--kind", kind, *_BOUND_ARGS[kind], "--family", family,
                 *_family_args(family, tmp_path), "--output", "-"])
    out, err = capsys.readouterr()
    if family in wf.thresholds.BOUNDS[kind].families:
        assert code == 0 and 0.0 <= json.loads(out)["value"] <= 1.0, err
    else:
        assert code == 2 and kind in err and family in err, err


# kind -> (samples, seed, arguments)
_MC_RUNS = {
    "order-param-cdf": (400, 5, ["--n", "10", "--t-level", "2.5"]),
    "death": (16, 2, ["--omega", "0.1,-0.1,0.05,-0.05,0.02,-0.02", "--kappa", "1", "--horizon", "20",
                      "--abs-tol", "1e-6", "--rel-tol", "1e-6", "--max-dt", "0.5"]),
    "escape": (64, 4, ["--omega", "0,0,0,0,0,0", "--kappa", "0.05", "--delta", "0.5", "--t-horizon", "2",
                       "--abs-tol", "1e-6", "--rel-tol", "1e-6", "--max-dt", "0.5"]),
}


@pytest.mark.parametrize("kind", list(_MC_RUNS))
def test_montecarlo_estimates_the_family_and_drops_a_verdict_it_cannot_give(capsys, kind):
    # every bound the estimators are checked against holds for the sinusoidal
    # family only: power_cosine(3) gets its own estimate and no verdict
    spec = wf.power_cosine(3)
    samples, seed, args = _MC_RUNS[kind]
    assert main(["montecarlo", "--kind", kind, *args, "--samples", str(samples), "--seed", str(seed),
                 "--family", "power_cosine", "--power", "3", "--output", "-"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["bound"] is None and data["dominated"] is None and data["dominates"] is None, data
    mc = wf.McConfig(samples=samples, seed=seed)
    opts = wf.dp45_options(20.0, 1.0, abs_tol=1e-6, rel_tol=1e-6, max_dt=0.5)
    if kind == "order-param-cdf":
        want = float(np.mean(wf.order_parameter(spec, wf.montecarlo._draws(mc.seed, 10, 0, mc.samples)) <= 2.5))
        assert 0.0 < want < 1.0
    elif kind == "death":
        cfg = wf.SystemConfig(n=6, omega=np.array([0.1, -0.1, 0.05, -0.05, 0.02, -0.02]), kappa=1.0)
        want = wf.empirical_death_probability(cfg, spec, opts, mc).estimate
    else:
        cfg = wf.SystemConfig(n=6, omega=np.zeros(6), kappa=0.05)
        want = wf.estimate_escape_measure(cfg, spec, 0.5, 2.0, opts, mc).estimate
    assert data["estimate"] == want


@pytest.mark.parametrize("t_level", [1.5, 0.5])
def test_order_param_cdf_verdict_only_inside_the_bound_domain(capsys, t_level):
    # the sinusoidal estimate takes t_level up to sup I = 2; the OrderParamCDF bound only (0, 1)
    assert main(["montecarlo", "--kind", "order-param-cdf", "--n", "4", "--t-level", str(t_level),
                 "--samples", "50", "--output", "-"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["estimate"] == wf.empirical_order_param_cdf(4, t_level, wf.McConfig(samples=50, seed=0)).estimate
    assert data["dominates"] is None
    if t_level < 1.0:
        assert data["bound"] is not None and isinstance(data["dominated"], bool), data
    else:
        assert data["bound"] is None and data["dominated"] is None, data


@pytest.mark.parametrize("command", [
    ["montecarlo", "--kind", "order-param-cdf", "--n", "10", "--samples", "20"],
    ["bounds", "--kind", "GeneralMaincor", "--n", "10", "--r-star", "0.5"],
], ids=["montecarlo", "bounds"])
@pytest.mark.parametrize("key, family", [
    ("power", "power_cosine"), ("r_pk", "rectified_poisson"),
    ("influence_table", "custom"), ("sensitivity_table", "custom"),
])
def test_family_parameters_need_their_family(tmp_path, capsys, command, key, family):
    # a family parameter given without its family used to be ignored
    value = {"power": "4", "r_pk": "0.3"}.get(key, str(tmp_path / "table.csv"))
    assert main([*command, "--" + key.replace("_", "-"), value, "--output", "-"]) == 2
    err = capsys.readouterr().err
    assert key in err and family in err, err
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"family": "sinusoidal", key: value}))
    assert main([*command, "--config", str(path), "--output", "-"]) == 2
    err = capsys.readouterr().err
    assert key in err and family in err, err


_POWER_COSINE = ["--family", "power_cosine", "--power", "2"]
_RECTIFIED_POISSON = ["--family", "rectified_poisson", "--r-pk", "0.3"]
# tiny valid runs (N <= 3, horizon 1, <= 4 samples): every subcommand, montecarlo kind and bounds kind (the
# _BOUND_ARGS runs at --n 3), and the two families with a parameter
_SWEEP_BASES = {
    "simulate": ["simulate", "--n", "3", "--kappa", "1", "--horizon", "1"],
    "simulate-power_cosine": ["simulate", "--n", "3", "--kappa", "1", "--horizon", "1", *_POWER_COSINE],
    "simulate-rectified_poisson": ["simulate", "--n", "3", "--kappa", "1", "--horizon", "1", *_RECTIFIED_POISSON],
    "sweep": ["sweep", "--n", "3", "--kappa-grid", "1", "--gamma-grid", "0.5", "--horizon", "1"],
    "equilibria": ["equilibria", "--n", "3", "--kappa", "1"],
    "critical-coupling": ["critical-coupling", "--n", "3"],
    "verify": ["verify", "--omega", "0.02,-0.02,0.01", "--kappa", "3", "--horizon", "1"],
    "kappa-pc": ["kappa-pc", "--n", "3", "--horizon", "1"],
    "montecarlo-order-param-cdf": ["montecarlo", "--kind", "order-param-cdf", "--n", "3", "--samples", "4"],
    "montecarlo-order-param-cdf-power_cosine": ["montecarlo", "--kind", "order-param-cdf", "--n", "3",
                                                "--samples", "4", *_POWER_COSINE],
    "montecarlo-order-param-cdf-rectified_poisson": ["montecarlo", "--kind", "order-param-cdf", "--n", "3",
                                                     "--samples", "4", *_RECTIFIED_POISSON],
    "montecarlo-death": ["montecarlo", "--kind", "death", "--n", "3", "--kappa", "3", "--samples", "4",
                         "--horizon", "1"],
    "montecarlo-escape": ["montecarlo", "--kind", "escape", "--n", "3", "--kappa", "1", "--samples", "4",
                          "--t-horizon", "1"],
    **{f"bounds-{kind}": ["bounds", "--kind", kind, *args[:1], "3", *args[2:]] for kind, args in _BOUND_ARGS.items()},
    "bounds-QuantIS-power_cosine": ["bounds", "--kind", "QuantIS", "--n", "3", "--kappa", "1", "--t-horizon", "1",
                                    "--delta", "0.1", *_POWER_COSINE],
    "bounds-GeneralMaincor-rectified_poisson": ["bounds", "--kind", "GeneralMaincor", "--n", "3", "--r-star", "0.5",
                                                *_RECTIFIED_POISSON],
}
_HOSTILE = {int: ["0", "-1"], float: ["0", "-1", "nan", "inf", "-inf", "1e308", "-1e308"]}


def _numeric_settings(argv):
    """The int and float settings the run argv reads (its kind's row for montecarlo), seed among them."""
    row = cli._COMMANDS[argv[0]]
    if argv[0] == "montecarlo":
        row = (*cli._MC_EVERY, *cli._MC_KINDS[argv[argv.index("--kind") + 1]])
    family = argv[argv.index("--family") + 1] if "--family" in argv else "sinusoidal"
    return [key for key in (*row, "seed") if cli._SETTINGS[key] in _HOSTILE
            and cli._FAMILY_OF.get(key, family) == family]


def _strict_json(argv, out) -> bool:
    """Whether an exit-0 run's stdout is JSON with no NaN or Infinity token.

    sweep prints a "wrote" line, and critical-coupling a plain line before its JSON.
    """
    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")

    if argv[0] == "sweep":
        return True
    try:
        json.loads(out.split("\n", 1)[1] if argv[0] == "critical-coupling" else out, parse_constant=refuse)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("base", _SWEEP_BASES)
def test_hostile_values_exit_cleanly(tmp_path, monkeypatch, capsys, base):
    # 0, -1 and the non-finite values for each numeric setting: main returns 0, 2 or 3 (2 with one
    # "configuration error:" line), raises nothing and emits no RuntimeWarning; a run that returns 0
    # prints strict JSON, and no run given a NaN returns 0
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("WINFREE_SEED", raising=False)
    argv = _SWEEP_BASES[base]
    assert main([*argv, "--output", "-"]) == 0, capsys.readouterr().err
    assert _strict_json(argv, capsys.readouterr().out)
    bad = []
    for key in _numeric_settings(argv):
        for value in _HOSTILE[cli._SETTINGS[key]]:
            run = [*argv, f"--{key.replace('_', '-')}={value}", "--output", "-"]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    code = main(run)
                except (Exception, SystemExit) as exc:  # every escape from main is a finding
                    code = repr(exc)
            out, err = capsys.readouterr()
            clean = code in (0, 3) or (code == 2 and err.startswith("configuration error: ") and err.count("\n") == 1)
            warned = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
            if not clean or warned or (code == 0 and (value == "nan" or not _strict_json(argv, out))):
                bad.append((run[1:], code, err, warned))
    assert bad == []


# (omega, kappa) pairs the one-setting-at-a-time sweep never makes: omega/kappa overflows, vanishes, and both
# are subnormal
_SCALE_PAIRS = [("1e150,-1e150", "1e-300"), ("1e-300,-1e-300", "1e300"), ("1e-310,-2e-310", "3e-310")]


def test_scale_pairs_exit_cleanly(tmp_path, monkeypatch, capsys):
    # every command that reads omega, with kappa where it reads one: main returns 0, 2 or 3, emits no
    # RuntimeWarning, and a run that returns 0 prints strict JSON
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("WINFREE_SEED", raising=False)
    commands = [["simulate", "--horizon", "1"], ["equilibria"], ["critical-coupling"], ["verify", "--horizon", "1"],
                ["kappa-pc", "--horizon", "1"], ["montecarlo", "--kind", "death", "--samples", "4", "--horizon", "1"]]
    bad = []
    for (omega, kappa), argv in itertools.product(_SCALE_PAIRS, commands):
        run = [*argv, f"--omega={omega}", "--output", "-"]
        if "kappa" in cli._COMMANDS[argv[0]]:
            run.append(f"--kappa={kappa}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(run)
            except (Exception, SystemExit) as exc:
                code = repr(exc)
        out, err = capsys.readouterr()
        warned = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        if code not in (0, 2, 3) or warned or (code == 0 and not _strict_json(argv, out)):
            bad.append((run, code, err, warned))
    assert bad == []


def test_quant_is_over_every_power_cosine_power(capsys):
    # QuantIS's coefficient has pi^r r^(r-1) with r = 2 power: the product
    # overflows from power 69 on and r^(r-1) alone from power 72; every power
    # gives a value in [0, 1], or exit 2 once c4 * c5 underflows to 0, and
    # never a traceback or a RuntimeWarning.  Below power 72 the value is the
    # direct formula's, with r^(r-1) / Gamma(1/r)^r taken first so that no
    # partial product overflows
    base = ["bounds", "--kind", "QuantIS", "--n", "3", "--kappa", "1", "--t-horizon", "1", "--delta", "0.1",
            "--family", "power_cosine", "--output", "-"]
    values, refused = {}, []
    for power in range(1, 1024):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*base, "--power", str(power)])
        out, err = capsys.readouterr()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], power
        if code == 2:
            assert out == "" and err.startswith("configuration error: QuantIS requires c4 * c5 > 0"), err
            assert err.count("\n") == 1, err
            refused.append(power)
            continue
        assert code == 0, (power, err)
        values[power] = json.loads(out)["value"]
        assert 0.0 <= values[power] <= 1.0, power
        spec = wf.power_cosine(power)
        assert spec.c4 * spec.c5 > 0.0, power
        if power < 72:
            r = spec.r_exp
            coef = spec.c4 * spec.c5 * np.pi**r * (r ** (r - 1.0) / math.gamma(1.0 / r) ** r) / (1.0 + r / 3)
            head = math.exp(r * (spec.I_star / spec.sup_I) ** 2 / 2.0)
            want = 1.0 - (head + coef * 3 * (spec.I_star - 0.1)) ** (-3 / r)
            assert values[power] == pytest.approx(want, rel=1e-12, abs=0.0), power
    assert refused == list(range(refused[0], 1024)) and 444 < refused[0] <= 467, refused[:3]


@pytest.mark.parametrize("argv, setting", [
    (["simulate", "--n", "3", "--family", "power_cosine", "--power", "0"], "power"),
    (["simulate", "--n", "3", "--family", "power_cosine", "--power", "1024"], "power"),
    (["montecarlo", "--kind", "order-param-cdf", "--n", "0", "--samples", "4"], "n"),
    (["montecarlo", "--kind", "order-param-cdf", "--n", "-1", "--samples", "4"], "n"),
    (["simulate", "--n", "3", "--gamma", "inf"], "gamma"),
    (["sweep", "--n", "3", "--kappa-grid", "1", "--gamma-grid", "0.5,-inf", "--horizon", "1"], "gamma"),
    (["verify", "--omega", "0.02,-0.02,0.01", "--kappa", "3", "--horizon", "1", "--gamma", "nan"], "gamma"),
], ids=["power_0", "power_1024", "n_0", "n_-1", "gamma_inf", "gamma_grid_inf", "gamma_nan_beside_omega"])
def test_out_of_domain_inputs_exit_2_before_any_work(tmp_path, monkeypatch, capsys, argv, setting):
    # these used to end in a traceback (exit 1), an estimate of 0.0, or a numpy warning before the error
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and list(tmp_path.iterdir()) == []
    assert err.startswith(f"configuration error: {setting} ") or f" {setting} " in err, err
    assert err.count("\n") == 1, err


def test_power_cosine_at_the_top_power_fails_without_a_warning(tmp_path, monkeypatch, capsys):
    # power 1023 overflows the right-hand side at t=0: the run ends as an integration failure (exit 3), and the
    # overflow inside the step loop prints no numpy RuntimeWarning
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["simulate", "--n", "3", "--family", "power_cosine", "--power", "1023", "--output", "-"])
    err = capsys.readouterr().err
    assert code == 3 and err.startswith("integration failure: "), err
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
