import json
import os
import subprocess
import sys

import numpy as np
import pytest

import winfree as wf
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


def test_kappa_pc_command(capsys):
    code = main(["kappa-pc", "--omega", "0.3,-0.3", "--kappa", "1",
                 "--horizon", "120", "--seed", "5"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    # the pathwise threshold dominates kappa_c asymptotically; at a finite
    # horizon the death detector can fire slightly early near the fold
    kc = wf.critical_coupling(np.array([0.3, -0.3]))
    assert data["kappa_pc"] >= kc - 0.05
    assert data["horizon_dependent"] is True


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


def test_import_winfree_leaves_cli_unloaded():
    src = os.path.dirname(os.path.dirname(wf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, winfree; print('argparse' in sys.modules, 'winfree.cli' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
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
@pytest.mark.parametrize("epsilon", [0.5, 1.0])
def test_main_theorem_death_dominates_sincos_bound(capsys, seed, epsilon):
    # kappa = (2 + eps) * max|omega|: the death fraction must reach the
    # SincosMain lower bound minus 3 SE, read from the command's own verdict
    omega = np.random.default_rng(seed).uniform(-1.0, 1.0, 20)
    kappa = (2.0 + epsilon) * float(np.max(np.abs(omega)))
    code = main(["montecarlo", "--kind", "death", "--omega=" + ",".join(f"{w:.17g}" for w in omega),
                 "--kappa", f"{kappa:.17g}", "--samples", "32", "--seed", str(seed),
                 "--horizon", "50", "--sample-stride", "1", "--abs-tol", "1e-6", "--rel-tol", "1e-6",
                 "--max-dt", "0.5", "--output", "-"])
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["bound"] == pytest.approx(1.0 - np.exp(-epsilon**2 * 20 / 25.0))
    assert data["dominates"] is True, data
    lo, hi = data["wilson_95"]
    assert lo <= data["estimate"] <= hi


def test_montecarlo_verdict_follows_bound_direction(capsys):
    # death is checked against the SincosMain lower bound, the order-parameter
    # CDF and the escape measure against upper bounds; the other key is null
    omega = np.random.default_rng(3).uniform(-1.0, 1.0, 20)
    kappa = 2.5 * float(np.max(np.abs(omega)))
    runs = {
        "death": ["--omega=" + ",".join(f"{w:.17g}" for w in omega), "--kappa", f"{kappa:.17g}",
                  "--samples", "32", "--seed", "3", "--horizon", "50", "--sample-stride", "1",
                  "--abs-tol", "1e-6", "--rel-tol", "1e-6", "--max-dt", "0.5"],
        "order-param-cdf": ["--n", "10", "--t-level", "0.5", "--samples", "2000", "--seed", "1"],
        "escape": ["--omega", "0,0,0,0,0,0", "--kappa", "2", "--delta", "0.5", "--t-horizon", "5",
                   "--samples", "64", "--seed", "4"],
    }
    for kind, args in runs.items():
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
