import logging
import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

import winfree as wf
from winfree import integrate
from winfree.errors import ConfigurationError, InsufficientDataError, IntegrationFailure


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


@pytest.mark.parametrize("field", ["horizon", "sample_stride", "dt", "abs_tol", "rel_tol", "max_dt"])
@pytest.mark.parametrize("method", ["rk4_fixed", "dormand_prince45"])
def test_solver_options_reject_nan(method, field):
    settings = dict(method=method, horizon=10.0, sample_stride=1.0)
    with pytest.raises(ConfigurationError, match=field):
        wf.SolverOptions(**{**settings, field: math.nan})


def test_solver_options_reject_infinite_horizon_and_keep_infinite_steps():
    for horizon in (math.inf, -math.inf):
        with pytest.raises(ConfigurationError, match="horizon"):
            wf.dp45_options(horizon=horizon, sample_stride=1.0)
    cfg = wf.SystemConfig(n=2, omega=np.array([0.1, -0.1]), kappa=1.0)
    for opts in (wf.dp45_options(2.0, 1.0, abs_tol=math.inf, max_dt=math.inf), wf.rk4_options(math.inf, 2.0, 1.0)):
        assert wf.simulate(cfg, SPEC, np.zeros(2), opts).times.tolist() == [0.0, 1.0, 2.0]


def test_solver_options_cap_the_sample_count():
    # constructing the options only: a grid of the cap's size is never built
    assert wf.dp45_options(horizon=float(integrate.MAX_SAMPLES), sample_stride=1.0).horizon == integrate.MAX_SAMPLES
    for horizon, stride in ((integrate.MAX_SAMPLES + 1.0, 1.0), (1e300, 1.0), (1.0, 5e-324)):
        with pytest.raises(wf.SizeLimitError, match="sample_stride"):
            wf.dp45_options(horizon=horizon, sample_stride=stride)


def test_dp45_agrees_with_tight_rk4_on_small_systems():
    # seeded systems of every family; the RK4 rows of one system run as one batch
    for n in (1, 2, 3, 6):
        rng = np.random.default_rng(100 + n)
        cfg = wf.SystemConfig(n=n, omega=rng.uniform(-1, 1, n), kappa=rng.uniform(0.5, 3.0))
        initial = rng.uniform(-np.pi, np.pi, (2, n))
        for spec in (SPEC, wf.power_cosine(2), wf.rectified_poisson(0.3), _table_spec()):
            tight = integrate._integrate_rows(cfg, spec, initial, wf.rk4_options(0.01, 3.0, 3.0))
            for theta0, (ref, failure) in zip(initial, tight):
                dp = wf.simulate(cfg, spec, theta0, wf.dp45_options(horizon=3.0, sample_stride=3.0))
                assert failure is None
                assert np.allclose(dp.final_state(), ref.final_state(), atol=1e-6)


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
    assert wf.classify_regime(np.array([0.0, 0.0, 0.0]), tol) == "CompleteDeath"
    assert wf.classify_regime(np.array([0.0, 0.0, 0.5]), tol) == "PartialDeath"
    assert wf.classify_regime(np.array([0.5, 0.5, 0.5]), tol) == "CompleteLocking"
    assert wf.classify_regime(np.array([0.5, 0.5, 0.9]), tol) == "PartialLocking"
    assert wf.classify_regime(np.array([0.1, 0.5, 0.9]), tol) == "Incoherence"


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


def _table_spec():
    th = np.linspace(-np.pi, np.pi, 64)
    return wf.custom_interaction((1 + np.cos(th)) ** 1.5, -np.sin(th) * (1 + 0.2 * np.cos(th)))


def _recording(stop):
    """stop, keeping a copy of each call's (times, thetas, rows) in .calls."""
    def hook(times, thetas, rows):
        hook.calls.append((np.array(times), np.array(thetas), np.array(rows)))
        return stop(times, thetas, rows)

    hook.calls = []
    return hook


def _assert_hook_saw_every_sample(calls, runs):
    # the t = 0 call gets every row, as arange(B); after it each call's rows
    # are indices into initial, and thetas[k] is row rows[k]'s sample at
    # times[k]; every recorded sample passes the hook exactly once
    times, _, rows = calls[0]
    assert rows.tolist() == list(range(len(runs))) and not times.any()
    seen = [0] * len(runs)
    for times, thetas, rows in calls:
        assert rows.dtype.kind == "i"
        for when, theta, row in zip(times, thetas, rows.tolist()):
            traj = runs[row][0]
            k = seen[row]
            assert traj.times[k] == when and traj.states[k].tobytes() == theta.tobytes()
            seen[row] += 1
    assert seen == [len(traj.times) for traj, _ in runs]


@pytest.mark.parametrize("opts", [
    wf.dp45_options(horizon=30.0, sample_stride=0.5, abs_tol=1e-7, rel_tol=1e-7, max_dt=0.5),
    wf.rk4_options(0.05, 30.0, 0.5),
], ids=["dp45", "rk4"])
@pytest.mark.parametrize(
    "spec", [wf.sinusoidal(), wf.power_cosine(2), wf.rectified_poisson(0.3), _table_spec()],
    ids=["sinusoidal", "power_cosine", "rectified_poisson", "custom"])
def test_ensemble_rows_do_not_depend_on_batch(spec, opts):
    # each row of a 7-row run is bitwise its own one-row run: rows that stop,
    # rows that reach the horizon and a row whose coupling overflows to a
    # non-finite state, each with its own t, step size and counters
    rng = np.random.default_rng(7)
    cfg = wf.SystemConfig(n=6, omega=rng.uniform(-1, 1, 6), kappa=1.0)
    initial = rng.uniform(-np.pi, np.pi, (7, 6))
    initial[3] = 0.0
    kappas = [0.0, 0.5, 1.0, 1e308, 2.0, 3.0, 4.0]
    level = 0.85 * float(wf.influence(spec, np.zeros(1))[0])

    def stop(times, thetas, rows):
        return (times >= 5.0) & (np.mean(wf.influence(spec, thetas), axis=1) >= level)

    hook = _recording(stop)
    with np.errstate(over="ignore", invalid="ignore"):
        batch = integrate._integrate_rows(cfg, spec, initial, opts, kappa=kappas, stop=hook)
        single = [integrate._integrate_rows(cfg, spec, initial[j:j + 1], opts,
                                            kappa=kappas[j:j + 1], stop=stop)[0] for j in range(7)]
    for (a, fail_a), (b, fail_b) in zip(batch, single):
        assert fail_a == fail_b
        assert a.times.tobytes() == b.times.tobytes()
        assert a.states.tobytes() == b.states.tobytes()
        assert a.r_series.tobytes() == b.r_series.tobytes()
        assert (a.accepted_steps, a.rejected_steps) == (b.accepted_steps, b.rejected_steps)
    _assert_hook_saw_every_sample(hook.calls, batch)
    ends = [traj.times[-1] for traj, _ in batch]
    assert batch[3][1].startswith("non-finite state")
    assert ends[0] == 30.0 and min(ends[4:]) < 30.0  # kappa = 0 runs on, strong coupling stops


@pytest.mark.parametrize("opts", [
    wf.dp45_options(horizon=10.0, sample_stride=0.5, abs_tol=1e-7, rel_tol=1e-7, max_dt=0.5),
    wf.rk4_options(0.05, 10.0, 0.5),
], ids=["dp45", "rk4"])
def test_batched_rows_are_contiguous_and_take_r_from_their_own_states(opts):
    # rows of a batch are slices of shared sample arrays, ordered by row
    rng = np.random.default_rng(8)
    cfg = wf.SystemConfig(n=5, omega=rng.uniform(-1, 1, 5), kappa=1.0)
    initial = rng.uniform(-np.pi, np.pi, (6, 5))
    for spec in (SPEC, wf.power_cosine(2), wf.rectified_poisson(0.3), _table_spec()):
        level = 0.85 * float(wf.influence(spec, np.zeros(1))[0])
        runs = integrate._integrate_rows(cfg, spec, initial, opts, kappa=[0.0, 0.5, 1.0, 2.0, 3.0, 4.0],
                                         stop=lambda t, y, rows: wf.order_parameter(spec, y) >= level)
        assert len({len(traj.times) for traj, _ in runs}) > 1  # rows end at different samples
        for theta0, (traj, _) in zip(initial, runs):
            assert traj.r_series.tobytes() == wf.order_parameter(spec, traj.states).tobytes()
            assert traj.times.flags.c_contiguous and traj.states.flags.c_contiguous
            assert traj.states.shape == (len(traj.times), 5) and np.array_equal(traj.states[0], theta0)
            assert np.all(np.diff(traj.times) > 0)


def _pair_bytes(pair):
    traj, failure = pair
    return (traj.times.tobytes(), traj.states.tobytes(), traj.r_series.tobytes(),
            traj.accepted_steps, traj.rejected_steps, traj.solver_tol, failure)


def test_rows_read_like_a_list_of_pairs():
    # a batch whose rows stop, fail and reach the horizon gives each row's
    # pair by positive and negative index and by iteration, built from its
    # slices of the shared columns; the final-R column is each row's last R
    rng = np.random.default_rng(9)
    cfg = wf.SystemConfig(n=4, omega=rng.uniform(-1, 1, 4), kappa=1.0)
    initial = rng.uniform(-np.pi, np.pi, (6, 4))
    kappas = [0.0, 3.0, 1e308, 4.0, 0.5, 1e308]
    opts = wf.dp45_options(horizon=10.0, sample_stride=0.5, abs_tol=1e-7, rel_tol=1e-7, max_dt=0.5)

    def stop(times, thetas, rows):
        return wf.order_parameter(SPEC, thetas) >= 1.7

    hook = _recording(stop)
    with np.errstate(over="ignore", invalid="ignore"):
        runs = integrate._integrate_rows(cfg, SPEC, initial, opts, kappa=kappas, stop=hook)
        single = [integrate._integrate_rows(cfg, SPEC, initial[j:j + 1], opts, kappa=kappas[j:j + 1], stop=stop)[0]
                  for j in range(6)]
    _assert_hook_saw_every_sample(hook.calls, runs)
    want = [_pair_bytes(pair) for pair in single]
    assert len(runs) == 6
    assert [_pair_bytes(runs[j]) for j in range(6)] == want
    assert [_pair_bytes(runs[j - 6]) for j in range(6)] == want
    assert [_pair_bytes(pair) for pair in runs] == want
    for bad in (6, -7):
        with pytest.raises(IndexError):
            runs[bad]
    ends = ["failed" if f is not None else "horizon" if t.times[-1] == 10.0 else "stopped" for t, f in single]
    assert {"failed", "horizon", "stopped"} <= set(ends), ends
    assert runs.failures == tuple(f for _, f in single)
    assert runs.final_r.tobytes() == np.array([t.r_series[-1] for t, _ in single]).tobytes()


def test_simulate_refuses_a_non_finite_initial_state():
    cfg = wf.SystemConfig(n=3, omega=np.array([0.1, 0.0, -0.1]), kappa=1.0)
    opts = wf.dp45_options(horizon=2.0, sample_stride=0.5)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigurationError, match="finite"):
            wf.simulate(cfg, SPEC, [0.0, bad, 0.0], opts)


def test_integration_failures_logged_only_at_debug(caplog):
    underflow = wf.SystemConfig(n=2, omega=np.array([1e155, 0.0]), kappa=1e300)
    opts = wf.dp45_options(horizon=1.0, sample_stride=0.1)
    with caplog.at_level(logging.INFO, logger="winfree.integrate"), pytest.raises(IntegrationFailure):
        wf.simulate(underflow, SPEC, np.zeros(2), opts)
    assert caplog.records == []
    calm = wf.SystemConfig(n=2, omega=np.array([0.1, -0.1]), kappa=1.0)
    with caplog.at_level(logging.DEBUG, logger="winfree.integrate"):
        with pytest.raises(IntegrationFailure):
            wf.simulate(underflow, SPEC, np.zeros(2), opts)
        with np.errstate(over="ignore", invalid="ignore"):
            runs = integrate._integrate_rows(calm, SPEC, np.zeros((3, 2)), opts, kappa=[1.0, 2.0, 1e308])
    assert [f for _, f in runs][:2] == [None, None]
    assert {r.levelno for r in caplog.records} == {logging.DEBUG}
    assert caplog.messages == ["row 0: step size underflow at t=0", f"row 2: {runs[2][1]}"]
    assert runs[2][1].startswith("non-finite state at t=")


def _scalar_bisection(dies, upper):
    if dies(0.0):
        return 0.0
    lo, hi = 0.0, upper
    if not dies(hi):
        return hi
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if dies(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pathwise_critical_coupling_equals_one_at_a_time_bisection(seed):
    rng = np.random.default_rng(seed)
    cfg = wf.SystemConfig(n=4, omega=rng.uniform(-1, 1, 4), kappa=1.0)
    theta0 = rng.uniform(-np.pi, np.pi, 4)
    opts = wf.dp45_options(horizon=20.0, sample_stride=1.0, abs_tol=1e-7, rel_tol=1e-7, max_dt=0.5)

    def dies(kappa):
        c = wf.SystemConfig(n=4, omega=cfg.omega, kappa=kappa)
        try:
            return bool(np.all(wf.detect_death(wf.simulate(c, SPEC, theta0, opts), 0.0)))
        except IntegrationFailure:
            return False

    upper, _ = wf.toy_thresholds(SPEC, cfg, range(4))
    assert wf.estimate_pathwise_critical_coupling(cfg, SPEC, theta0, opts) == _scalar_bisection(dies, upper)


@pytest.mark.parametrize("seed", range(6))
def test_pathwise_critical_coupling_walks_any_verdicts(monkeypatch, seed):
    # the seven-point rounds give the bisection's answer even when death is
    # not monotone in kappa
    cfg = wf.SystemConfig(n=2, omega=np.array([0.3, -0.3]), kappa=1.0)
    opts = wf.dp45_options(horizon=2.0, sample_stride=1.0)
    upper, _ = wf.toy_thresholds(SPEC, cfg, range(2))

    def estimate(dies):
        def fake_rows(config, spec, initial, opts, kappa=None, stop=None):
            # every row still at 0 for two samples, failed where it lives
            b = len(kappa)
            return integrate._Rows(times=np.tile([0.0, 1.0], b), states=np.zeros((2 * b, 2)),
                                   r_series=np.full(2 * b, 2.0), ends=2 * np.arange(1, b + 1), accepted=(1,) * b,
                                   rejected=(0,) * b, failures=tuple(None if dies(k) else "lives" for k in kappa),
                                   solver_tol=1e-9)

        monkeypatch.setattr(integrate, "_integrate_rows", fake_rows)
        return wf.estimate_pathwise_critical_coupling(cfg, SPEC, np.zeros(2), opts)

    def dies(kappa):
        return kappa >= upper or (kappa > 0.0 and math.sin(1e3 * kappa + seed) > -0.2)

    got = estimate(dies)
    assert 0.0 < got < upper
    assert got == _scalar_bisection(dies, upper)
    assert estimate(lambda kappa: True) == 0.0
    assert estimate(lambda kappa: False) == upper


def _counted_rows(monkeypatch):
    batches, rows = [], integrate._integrate_rows

    def counted(*args, **kwargs):
        batches.append(len(kwargs["kappa"]))
        return rows(*args, **kwargs)

    monkeypatch.setattr(integrate, "_integrate_rows", counted)
    return batches


@pytest.mark.parametrize("seed", range(6))
def test_guided_pathwise_critical_coupling_keeps_the_bisection_bits(monkeypatch, caplog, seed):
    # the margin-guided rounds choose only which couplings share a batch: on
    # benchmark-shaped systems (N = 5, T = 20, stride 0.5, tol 1e-9) kappa_pc
    # is the one-at-a-time bisection's, in at most 7 batches where the end
    # points and ten seven-midpoint rounds took 11, and the DEBUG line counts
    # those batches
    rng = np.random.default_rng([seed, 32])
    cfg = wf.SystemConfig(n=5, omega=rng.uniform(-1, 1, 5), kappa=1.0)
    theta0 = rng.uniform(-np.pi, np.pi, 5)
    opts = wf.dp45_options(horizon=20.0, sample_stride=0.5, abs_tol=1e-9, rel_tol=1e-9)

    def dies(kappa):
        c = wf.SystemConfig(n=5, omega=cfg.omega, kappa=kappa)
        try:
            return bool(np.all(wf.detect_death(wf.simulate(c, SPEC, theta0, opts), 0.0)))
        except IntegrationFailure:
            return False

    upper, _ = wf.toy_thresholds(SPEC, cfg, range(5))
    expected = _scalar_bisection(dies, upper)
    batches = _counted_rows(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="winfree.integrate"):
        got = wf.estimate_pathwise_critical_coupling(cfg, SPEC, theta0, opts)
    assert got.hex() == expected.hex() and 0.0 < got < upper
    assert len(batches) <= 7, batches
    assert batches[0] == 2 + 7  # the end points and the first three halvings' midpoints
    line, = caplog.messages
    counts = re.fullmatch(r"kappa_pc n=5: (\d+) batches, (\d+) rows, (\d+) guided rounds, (\d+) mismatches", line)
    logged, rows, guided, mismatches = map(int, counts.groups())
    assert (logged, rows) == (len(batches), sum(batches))
    assert 1 <= guided <= len(batches) - 1 and mismatches <= guided


def test_pathwise_critical_coupling_logs_each_call(monkeypatch, caplog):
    # one DEBUG line per call, early returns included: at omega = 0 both end
    # points and every first-batch midpoint are kappa = 0, integrated once
    cfg = wf.SystemConfig(n=3, omega=np.zeros(3), kappa=1.0)
    opts = wf.dp45_options(horizon=5.0, sample_stride=0.5)
    batches = _counted_rows(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="winfree.integrate"):
        assert wf.estimate_pathwise_critical_coupling(cfg, SPEC, np.array([0.1, -0.2, 0.3]), opts) == 0.0
    assert batches == [1]
    assert caplog.messages == ["kappa_pc n=3: 1 batches, 1 rows, 0 guided rounds, 0 mismatches"]


def test_pathwise_critical_coupling_lies_below_the_order_parameter_bound():
    # the proof's first step, across modules: above K_c(R0) max|omega| every
    # phase converges without a 2 pi slip, so the bisection moves its lower
    # end only to couplings below that bound and kappa_pc(theta0) <= K_c(R0)
    # max|omega| (thresholds.kc_coefficient at R0 = model.order_parameter)
    opts = wf.dp45_options(horizon=20.0, sample_stride=0.5, abs_tol=1e-8, rel_tol=1e-8)
    for seed in range(6):
        n = (3, 5)[seed % 2]
        rng = np.random.default_rng([seed, 31])
        cfg = wf.SystemConfig(n=n, omega=rng.uniform(-1.0, 1.0, n), kappa=1.0)
        theta0 = rng.uniform(-np.pi, np.pi, n)
        bound = wf.kc_coefficient(wf.order_parameter(SPEC, theta0)) * cfg.omega_max
        kappa_pc = wf.estimate_pathwise_critical_coupling(cfg, SPEC, theta0, opts)
        assert 0.0 < kappa_pc <= bound, (seed, kappa_pc, bound)


def test_no_complete_death_below_critical_coupling():
    # sharpness, flow side: below kappa_c there is no equilibrium, so no cell
    # may end in CompleteDeath (slow oscillators may still stop: PartialDeath);
    # the control row at 2.5 max|omega| is the main theorem's complete death
    opts = wf.dp45_options(horizon=300.0, sample_stride=1.0, abs_tol=1e-6, rel_tol=1e-6, max_dt=0.5)
    for n in (2, 3, 5, 8, 12, 20):
        for seed in (0, 1):
            rng = np.random.default_rng((n, seed))
            cfg = wf.SystemConfig(n=n, omega=rng.uniform(-1, 1, n), kappa=1.0)
            kappa_c = wf.critical_coupling(cfg.omega)
            kappas = [0.5 * kappa_c, 0.8 * kappa_c, 0.9 * kappa_c, 2.5 * cfg.omega_max]
            initial = np.tile(rng.uniform(-np.pi, np.pi, n), (4, 1))
            runs = integrate._integrate_rows(cfg, SPEC, initial, opts, kappa=kappas)
            regimes = [wf.regime_report(traj, cfg).regime for traj, failure in runs if failure is None]
            assert len(regimes) == 4
            assert "CompleteDeath" not in regimes[:3], (n, seed, regimes)
            assert regimes[3] == "CompleteDeath", (n, seed, regimes)
