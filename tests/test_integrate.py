import numpy as np
import pytest
from scipy.integrate import quad

import winfree as wf
from winfree.errors import InsufficientDataError, IntegrationFailure


SPEC = wf.sinusoidal()


def test_uncoupled_solution_exact():
    omega = np.array([0.3, -0.7])
    cfg = wf.SystemConfig(n=2, omega=omega, kappa=0.0)
    opts = wf.dp45_options(horizon=10.0, sample_stride=0.5)
    traj = wf.simulate(cfg, SPEC, np.array([0.1, 0.2]), opts)
    expected = np.array([0.1, 0.2]) + np.outer(traj.times, omega)
    assert np.allclose(traj.states, expected, atol=1e-7)


def test_rotation_numbers_kappa_zero():
    omega = np.array([0.5, -1.2, 0.0])
    cfg = wf.SystemConfig(n=3, omega=omega, kappa=0.0)
    opts = wf.dp45_options(horizon=100.0, sample_stride=1.0)
    traj = wf.simulate(cfg, SPEC, np.zeros(3), opts)
    rho = wf.rotation_numbers(traj)
    assert np.allclose(rho, omega, atol=10 * opts.tolerance / opts.horizon)


def test_rotation_number_quadrature_oracle():
    # N=1 running solution: the period is the integral of dt = dtheta/thetadot.
    om, ka = 1.0, 0.4
    period = quad(
        lambda th: 1.0 / (om - ka * (1 + np.cos(th)) * np.sin(th)), -np.pi, np.pi
    )[0]
    oracle = 2 * np.pi / period
    cfg = wf.SystemConfig(n=1, omega=np.array([om]), kappa=ka)
    opts = wf.dp45_options(horizon=800.0, sample_stride=1.0)
    traj = wf.simulate(cfg, SPEC, np.array([0.0]), opts)
    rho = wf.rotation_numbers(traj)[0]
    # The secant estimator carries an O(1/horizon) phase error.
    assert rho == pytest.approx(oracle, abs=4 * np.pi / opts.horizon)


def test_rk4_fourth_order_convergence():
    cfg = wf.SystemConfig(n=2, omega=np.array([0.4, -0.3]), kappa=1.1)
    theta0 = np.array([0.3, -0.8])
    ref = wf.simulate(cfg, SPEC, theta0, wf.dp45_options(
        horizon=5.0, sample_stride=5.0, abs_tol=1e-13, rel_tol=1e-13)).final_state()
    errs = []
    for dt in (0.1, 0.05, 0.025):
        traj = wf.simulate(cfg, SPEC, theta0, wf.rk4_options(dt, 5.0, 5.0))
        errs.append(np.max(np.abs(traj.final_state() - ref)))
    rate1 = np.log2(errs[0] / errs[1])
    rate2 = np.log2(errs[1] / errs[2])
    assert rate1 > 3.5
    assert rate2 > 3.5


def test_dp45_accuracy_vs_tight_rk4():
    rng = np.random.default_rng(0)
    cfg = wf.SystemConfig(n=4, omega=rng.uniform(-1, 1, 4), kappa=1.5)
    theta0 = rng.uniform(-np.pi, np.pi, 4)
    a = wf.simulate(cfg, SPEC, theta0, wf.dp45_options(horizon=10.0, sample_stride=10.0))
    b = wf.simulate(cfg, SPEC, theta0, wf.rk4_options(0.001, 10.0, 10.0))
    assert np.allclose(a.final_state(), b.final_state(), atol=1e-6)


def test_step_counters_and_samples():
    cfg = wf.SystemConfig(n=2, omega=np.array([0.1, -0.1]), kappa=1.0)
    opts = wf.dp45_options(horizon=5.0, sample_stride=0.5)
    traj = wf.simulate(cfg, SPEC, np.zeros(2), opts)
    assert traj.accepted_steps > 0
    assert traj.rejected_steps >= 0
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(5.0)
    assert len(traj.times) == 11
    assert traj.states.shape == (11, 2)
    assert traj.r_series.shape == (11,)


def test_integration_failure_carries_partial_trajectory():
    cfg = wf.SystemConfig(n=2, omega=np.array([1e155, 0.0]), kappa=1e300)
    opts = wf.dp45_options(horizon=1.0, sample_stride=0.1)
    with pytest.raises(IntegrationFailure) as exc_info:
        wf.simulate(cfg, SPEC, np.zeros(2), opts)
    partial = exc_info.value.partial_trajectory
    assert partial is not None
    assert partial.states.shape[1] == 2


def test_detect_death_true_and_false():
    cfg = wf.SystemConfig(n=2, omega=np.array([0.1, -0.1]), kappa=3.0)
    opts = wf.dp45_options(horizon=60.0, sample_stride=0.5)
    traj = wf.simulate(cfg, SPEC, np.array([1.0, -1.0]), opts)
    assert np.all(wf.detect_death(traj, 0.0))
    cfg2 = wf.SystemConfig(n=1, omega=np.array([1.0]), kappa=0.0)
    traj2 = wf.simulate(cfg2, SPEC, np.zeros(1), opts)
    assert not wf.detect_death(traj2, 0.0)[0]


def test_classify_regime_examples():
    tol = 1e-3
    assert wf.classify_regime(np.array([0.0, 0.0, 0.0]), np.array([True] * 3), tol) == "CompleteDeath"
    assert wf.classify_regime(np.array([0.0, 0.0, 0.5]), np.array([True, True, False]), tol) == "PartialDeath"
    assert wf.classify_regime(np.array([0.5, 0.5, 0.5]), np.array([False] * 3), tol) == "CompleteLocking"
    assert wf.classify_regime(np.array([0.5, 0.5, 0.9]), np.array([False] * 3), tol) == "PartialLocking"
    assert wf.classify_regime(np.array([0.1, 0.5, 0.9]), np.array([False] * 3), tol) == "Incoherence"


def test_default_regime_tol():
    assert wf.default_regime_tol(np.array([0.0, 0.0])) == pytest.approx(1e-3)
    assert wf.default_regime_tol(np.array([2.0, 2.0])) == pytest.approx(0.02)


def test_regime_report_death():
    cfg = wf.SystemConfig(n=2, omega=np.array([0.1, -0.1]), kappa=3.0)
    opts = wf.dp45_options(horizon=60.0, sample_stride=0.5)
    traj = wf.simulate(cfg, SPEC, np.array([1.0, -1.0]), opts)
    rep = wf.regime_report(traj, cfg)
    assert rep.regime == "CompleteDeath"
    assert np.all(rep.death_flags)


def test_rotation_numbers_insufficient_data():
    traj = wf.Trajectory(
        times=np.array([0.0]),
        states=np.zeros((1, 1)),
        r_series=np.array([2.0]),
        accepted_steps=0,
        rejected_steps=0,
        solver_tol=1e-9,
    )
    with pytest.raises(InsufficientDataError):
        wf.rotation_numbers(traj)


def test_stop_condition_halts_early():
    cfg = wf.SystemConfig(n=2, omega=np.array([0.1, -0.1]), kappa=2.0)
    opts = wf.dp45_options(horizon=100.0, sample_stride=0.5)

    def stop(t, theta):
        return t >= 3.0

    traj = wf.simulate(cfg, SPEC, np.zeros(2), opts, stop_condition=stop)
    assert traj.times[-1] < 100.0


def test_trajectory_csv_round_trip(tmp_path):
    cfg = wf.SystemConfig(n=3, omega=np.array([0.1, 0.2, -0.3]), kappa=1.0)
    opts = wf.dp45_options(horizon=2.0, sample_stride=0.5)
    traj = wf.simulate(cfg, SPEC, np.zeros(3), opts)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,theta_1,theta_2,theta_3,R"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.allclose(data[:, 0], traj.times)
    assert np.allclose(data[:, 1:4], traj.states)
    assert np.allclose(data[:, 4], traj.r_series)


def test_energy_dissipation_along_trajectories():
    rng = np.random.default_rng(11)
    for _ in range(5):
        n = int(rng.integers(2, 6))
        cfg = wf.SystemConfig(n=n, omega=rng.uniform(-0.5, 0.5, n), kappa=rng.uniform(0.5, 2.5))
        opts = wf.dp45_options(horizon=20.0, sample_stride=0.25)
        traj = wf.simulate(cfg, SPEC, rng.uniform(-np.pi, np.pi, n), opts)
        v_vals = [wf.potential(cfg, SPEC, traj.states[k]) for k in range(len(traj.times))]
        diffs = np.diff(v_vals)
        assert np.all(diffs <= 10 * traj.solver_tol)


def test_verify_theorem_conclusions_strong_coupling():
    rng = np.random.default_rng(12)
    n = 5
    omega = rng.uniform(-0.05, 0.05, n)
    cfg = wf.SystemConfig(n=n, omega=omega, kappa=4.0)
    opts = wf.dp45_options(horizon=50.0, sample_stride=0.1)
    traj = wf.simulate(cfg, SPEC, rng.uniform(-2.0, 2.0, n), opts)
    rep = wf.verify_theorem_conclusions(traj, cfg, 0.5)
    assert rep.all_ok


@pytest.mark.parametrize("opts", [
    wf.dp45_options(horizon=200.0, sample_stride=5.0, abs_tol=1e-6, rel_tol=1e-6),
    wf.rk4_options(0.05, 50.0, 1.0),
], ids=["dp45", "rk4"])
def test_one_rhs_path_for_every_family(opts):
    # power_cosine(1) is the sinusoidal kernel; only a shared right-hand
    # side makes the two runs agree to the last bit
    rng = np.random.default_rng(20)
    cfg = wf.SystemConfig(n=20, omega=rng.uniform(-1, 1, 20), kappa=2.5)
    theta0 = rng.uniform(-np.pi, np.pi, 20)
    a = wf.simulate(cfg, wf.sinusoidal(), theta0, opts)
    b = wf.simulate(cfg, wf.power_cosine(1), theta0, opts)
    assert a.times.tobytes() == b.times.tobytes()
    assert a.states.tobytes() == b.states.tobytes()
    assert (a.accepted_steps, a.rejected_steps) == (b.accepted_steps, b.rejected_steps)
