import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import winfree as wf
from winfree import equilibria, integrate, montecarlo
from winfree.errors import ConfigurationError, DomainError, IntegrationFailure

from test_equilibria import _reference_bisect, _solved_brackets


SPEC = wf.sinusoidal()


def test_mc_config_validation():
    with pytest.raises(ConfigurationError):
        wf.McConfig(samples=0, seed=0)
    with pytest.raises(ConfigurationError):
        wf.McConfig(samples=10, seed=0, workers=0)
    with pytest.raises(ConfigurationError):
        wf.McConfig(samples=10, seed=-1)


def test_sample_uniform_initial_deterministic():
    mc = wf.McConfig(samples=8, seed=42)
    a = wf.sample_uniform_initial(5, mc)
    b = wf.sample_uniform_initial(5, mc)
    assert np.array_equal(a, b)
    assert a.shape == (8, 5)
    assert np.all(a >= -np.pi)
    assert np.all(a < np.pi)


def test_samples_independent_of_batch_layout():
    # sample k depends only on (seed, k), so growing the batch is a prefix
    small = wf.sample_uniform_initial(4, wf.McConfig(samples=5, seed=9))
    large = wf.sample_uniform_initial(4, wf.McConfig(samples=10, seed=9))
    assert np.array_equal(small, large[:5])


@st.composite
def _sample_ranges(draw):
    start = draw(st.integers(0, 10**6))
    stop = draw(st.integers(start, start + 300))
    return draw(st.integers(1, 40)), start, draw(st.integers(start, stop)), stop


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), ranges=_sample_ranges())
def test_draws_of_a_range_are_its_two_parts_joined(seed, ranges):
    # sample k is always the same doubles of the seed's stream, however the
    # samples are split into chunks and blocks
    n, start, split, stop = ranges
    whole = montecarlo._draws(seed, n, start, stop)
    assert whole.shape == (stop - start, n)
    parts = np.vstack([montecarlo._draws(seed, n, start, split), montecarlo._draws(seed, n, split, stop)])
    assert np.array_equal(whole, parts)


def test_draws_stream_is_pinned():
    # a numpy release that moves these doubles changes every Monte Carlo
    # output: bump montecarlo.RNG_STREAM along with these literals
    want = [
        ["0x1.b89ac06c69d18p-1", "-0x1.724c098e88338p+0", "-0x1.712bc66ce71ddp+1"],
        ["-0x1.84d4e03ae870ap+1", "0x1.f7e4ccda77c2cp+0", "0x1.4bf52de6f5c5ep+1"],
    ]
    assert [[float(x).hex() for x in row] for row in montecarlo._draws(0, 3, 0, 2)] == want
    assert montecarlo.RNG_STREAM == "pcg64-advance/1"
    record = wf.result_json_dict("order-param-cdf", {"n": 3}, montecarlo._estimate(1, 2), None)
    assert record["rng_stream"] == montecarlo.RNG_STREAM


@pytest.mark.parametrize("t", [0.5, 1.0, 1.5])
def test_order_param_cdf_matches_closed_form_at_one_oscillator(t):
    # at N=1, R0 = 1 + cos(theta) with theta uniform, so P(R0 <= t) = 1 - arccos(t - 1)/pi
    est = wf.empirical_order_param_cdf(1, t, wf.McConfig(samples=10**5, seed=41))
    exact = 1.0 - math.acos(t - 1.0) / math.pi
    assert abs(est.estimate - exact) <= 4.0 * est.std_error


def test_order_param_cdf_seeded_and_bounded():
    mc = wf.McConfig(samples=5000, seed=3)
    for n in (5, 10):
        for t in (0.2, 0.5, 0.8):
            est = wf.empirical_order_param_cdf(n, t, mc)
            bound = wf.probability_bound("OrderParamCDF", n, wf.BoundParams(t_level=t))
            assert est.estimate <= bound + 3 * est.std_error + 1e-12
            assert est.count == 5000


def test_order_param_cdf_domain():
    with pytest.raises(DomainError):
        wf.empirical_order_param_cdf(5, 0.0, wf.McConfig(samples=10, seed=0))


@pytest.mark.parametrize("n", [0, -1])
def test_order_param_cdf_refuses_n_below_one_before_any_draw(monkeypatch, n):
    # n = 0 used to return estimate 0.0 after a RuntimeWarning, n = -1 numpy's ValueError
    drawn = []
    monkeypatch.setattr(montecarlo, "_rows", lambda *args: drawn.append(args))
    with pytest.raises(DomainError, match="n must be >= 1"):
        wf.empirical_order_param_cdf(n, 0.5, wf.McConfig(samples=4, seed=0))
    with pytest.raises(DomainError, match="n must be >= 1"):
        wf.sample_uniform_initial(n, wf.McConfig(samples=4, seed=0))
    assert drawn == []


def test_worker_count_invariance():
    mc1 = wf.McConfig(samples=60, seed=7, workers=1)
    mc3 = wf.McConfig(samples=60, seed=7, workers=3)
    e1 = wf.empirical_order_param_cdf(8, 0.9, mc1)
    e3 = wf.empirical_order_param_cdf(8, 0.9, mc3)
    assert e1 == e3


def test_process_pool_is_sized_by_its_chunks(monkeypatch):
    # a fork pool starts every max_workers process at the first submit, so
    # 8 workers for 3 samples used to fork 8 processes for 3 chunks
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    one = wf.empirical_order_param_cdf(8, 0.9, wf.McConfig(samples=3, seed=7))
    assert sizes == []
    assert wf.empirical_order_param_cdf(8, 0.9, wf.McConfig(samples=3, seed=7, workers=8)) == one
    assert sizes == [3]


def test_death_probability_strong_coupling():
    rng = np.random.default_rng(0)
    n = 12
    cfg = wf.SystemConfig(n=n, omega=rng.uniform(-1, 1, n), kappa=3.0)
    opts = wf.dp45_options(horizon=120.0, sample_stride=1.0, abs_tol=1e-7, rel_tol=1e-7, max_dt=0.5)
    est = wf.empirical_death_probability(cfg, SPEC, opts, wf.McConfig(samples=20, seed=5))
    assert est.estimate == 1.0


def test_death_probability_zero_coupling():
    cfg = wf.SystemConfig(n=4, omega=np.array([1.0, -0.8, 0.6, 0.9]), kappa=0.0)
    opts = wf.dp45_options(horizon=60.0, sample_stride=1.0, abs_tol=1e-7, rel_tol=1e-7, max_dt=0.5)
    est = wf.empirical_death_probability(cfg, SPEC, opts, wf.McConfig(samples=10, seed=6))
    assert est.estimate == 0.0


@pytest.mark.parametrize("n, kappa, t_horizon, delta, samples", [
    (10, 2.0, 10.0, 0.5, 300),
    # one case on each other delta branch of the bound; each of them escapes
    (4, 0.5, 2.0, 0.1, 2000),
    (4, 0.5, 2.0, 0.3, 2000),
    (4, 0.5, 2.0, 0.8, 2000),
], ids=["n10-delta0.5", "n4-delta0.1", "n4-delta0.3", "n4-delta0.8"])
def test_escape_measure_dominated_by_bound(n, kappa, t_horizon, delta, samples):
    cfg = wf.SystemConfig(n=n, omega=np.zeros(n), kappa=kappa)
    opts = wf.dp45_options(horizon=t_horizon, sample_stride=0.25, abs_tol=1e-7, rel_tol=1e-7, max_dt=0.5)
    mc = wf.McConfig(samples=samples, seed=11)
    est = wf.estimate_escape_measure(cfg, SPEC, delta, t_horizon, opts, mc)
    bound = wf.probability_bound(
        "EscapeMeasure", n, wf.BoundParams(delta=delta, T=t_horizon, kappa=kappa)
    )
    assert est.estimate <= bound + 3 * est.std_error + 1e-12


def test_escape_measure_domain():
    cfg = wf.SystemConfig(n=4, omega=np.zeros(4), kappa=1.0)
    opts = wf.dp45_options(horizon=1.0, sample_stride=0.5)
    mc = wf.McConfig(samples=4, seed=0)
    with pytest.raises(DomainError):
        wf.estimate_escape_measure(cfg, SPEC, 1.2, 1.0, opts, mc)
    bad = wf.SystemConfig(n=4, omega=np.zeros(4), kappa=-1.0)
    with pytest.raises(DomainError):
        wf.estimate_escape_measure(bad, SPEC, 0.5, 1.0, opts, mc)


def test_result_json_dict():
    est = wf.EstimateCI(estimate=0.1, std_error=0.01, count=100)
    d = wf.result_json_dict("order-param-cdf", {"n": 5}, est, 0.2)
    assert d["dominated"] is True
    d2 = wf.result_json_dict("order-param-cdf", {"n": 5}, est, None)
    assert d2["dominated"] is None
    d3 = wf.result_json_dict("order-param-cdf", {"n": 5}, est, 0.01)
    assert d3["dominated"] is False


def _one_at_a_time_hits(cfg, opts, seed, samples, r_floor=None, delta=None, spec=SPEC):
    """The estimators' per-sample rules, one simulate call per sample; a failed sample is no hit."""
    hits = []
    level = None if delta is None else 1.0 - delta
    stop = None if delta is None else (lambda t, y: wf.order_parameter(spec, y) >= level)
    for k in range(samples):
        theta0 = montecarlo._draws(seed, cfg.n, k, k + 1)[0]
        try:
            traj = wf.simulate(cfg, spec, theta0, opts, stop_condition=stop)
        except IntegrationFailure:
            hits.append(False)
            continue
        if delta is None:
            hits.append(bool(np.all(wf.detect_death(traj, 0.0))) and traj.r_series[-1] >= r_floor)
        else:
            hits.append(bool(np.all(traj.r_series < level)) and traj.times[-1] >= opts.horizon - 1e-9)
    return hits


@pytest.mark.parametrize("block", [1, 3, 64])
def test_block_estimators_match_one_sample_at_a_time(monkeypatch, block):
    # just below kappa_c some samples pass the saddle-node ghost within the
    # horizon and some do not, and at weak coupling some keep R below the
    # escape level: the hits are mixed
    monkeypatch.setattr(montecarlo, "BLOCK_SAMPLES", block)
    omega = np.random.default_rng(77).uniform(-1, 1, 6)
    cfg = wf.SystemConfig(n=6, omega=omega, kappa=0.97 * wf.critical_coupling(omega))
    opts = wf.dp45_options(horizon=40.0, sample_stride=2.0, abs_tol=1e-6, rel_tol=1e-6, max_dt=0.5)
    hits = montecarlo._death_block(cfg, SPEC, opts, 0.0, montecarlo._draws(5, 6, 0, 16))
    assert hits == _one_at_a_time_hits(cfg, opts, 5, 16, r_floor=0.0)
    assert 0 < sum(hits) < 16
    est = wf.empirical_death_probability(cfg, SPEC, opts, wf.McConfig(samples=16, seed=5))
    assert est.estimate == sum(hits) / 16
    weak = wf.SystemConfig(n=6, omega=np.zeros(6), kappa=0.02)
    esc_opts = wf.dp45_options(horizon=10.0, sample_stride=0.25, abs_tol=1e-6, rel_tol=1e-6, max_dt=0.5)
    want = _one_at_a_time_hits(weak, esc_opts, 9, 40, delta=0.1)
    assert 0 < sum(want) < 40
    est = wf.estimate_escape_measure(weak, SPEC, 0.1, 10.0, esc_opts, wf.McConfig(samples=40, seed=9))
    assert est.estimate == sum(want) / 40


def _block_sizes(monkeypatch, block_fn):
    """Patch montecarlo.block_fn to return no hits and record each block's row count."""
    sizes = []

    def sized(*args):
        sizes.append(len(args[-1]))
        return [False] * len(args[-1])

    monkeypatch.setattr(montecarlo, block_fn, sized)
    return sizes


def test_block_rows_follow_the_recorded_phase_budget(monkeypatch):
    # a block records rows x N x sample times phases: the N=800, T=500,
    # stride-5 death block gets at most 64 rows, the criterion-9 escape
    # system takes 2000 samples in one block, and a row whose own samples
    # exceed the budget integrates alone
    death = _block_sizes(monkeypatch, "_death_block")
    wide = wf.SystemConfig(n=800, omega=np.zeros(800), kappa=1.0)
    opts = wf.dp45_options(horizon=500.0, sample_stride=5.0, abs_tol=1e-6, rel_tol=1e-6, max_dt=0.5)
    wf.empirical_death_probability(wide, SPEC, opts, wf.McConfig(samples=200, seed=1))
    assert sum(death) == 200 and 1 < max(death) <= 64
    assert montecarlo._block_rows(800 * len(integrate._sample_times(opts))) == death[0]
    escape = _block_sizes(monkeypatch, "_escape_block")
    cfg = wf.SystemConfig(n=10, omega=np.zeros(10), kappa=2.0)
    esc_opts = wf.dp45_options(horizon=10.0, sample_stride=0.25, abs_tol=1e-6, rel_tol=1e-6, max_dt=0.5)
    wf.estimate_escape_measure(cfg, SPEC, 0.5, 10.0, esc_opts, wf.McConfig(samples=2000, seed=1))
    assert escape == [2000]
    death.clear()
    long = wf.dp45_options(horizon=1e6, sample_stride=1.0, abs_tol=1e-6, rel_tol=1e-6, max_dt=0.5)
    assert 50 * len(integrate._sample_times(long)) > montecarlo.BLOCK_PHASES
    wf.empirical_death_probability(wf.SystemConfig(n=50, omega=np.zeros(50), kappa=1.0), SPEC, long,
                                   wf.McConfig(samples=3, seed=1))
    assert death == [1, 1, 1]


def test_cdf_hits_do_not_depend_on_block_size(monkeypatch):
    mc = wf.McConfig(samples=3000, seed=7)
    default = montecarlo._map_samples(montecarlo._cdf_block, (SPEC, 0.5), 5, 1, mc)
    assert 0 < sum(default) < 3000
    est = wf.empirical_order_param_cdf(5, 0.5, mc)
    monkeypatch.setattr(montecarlo, "BLOCK_SAMPLES", 1)
    assert montecarlo._map_samples(montecarlo._cdf_block, (SPEC, 0.5), 5, 1, mc) == default
    assert wf.empirical_order_param_cdf(5, 0.5, mc) == est


def _full_horizon_hits(runs, r_floor):
    return [failure is None and bool(np.all(wf.detect_death(traj, 0.0))) and traj.r_series[-1] >= r_floor
            for traj, failure in runs]


@pytest.mark.parametrize("n", [5, 20, 50])
def test_death_samples_end_at_the_stable_equilibrium(monkeypatch, n):
    # for kappa > 0 only the all-plus signature can give a stable equilibrium:
    # every sample the death estimator counts must end on it (mod 2 pi) when
    # run to the horizon, the early exit must give each row its full-horizon
    # hit, and a row it stopped must stay in the ball it certified
    runs, integrate_rows = [], integrate._integrate_rows

    def recorded(*args, **kwargs):
        runs.append(integrate_rows(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(integrate, "_integrate_rows", recorded)
    omega = np.random.default_rng(501).uniform(-1.0, 1.0, n)
    kc = wf.critical_coupling(omega)
    opts = wf.dp45_options(horizon=500.0, sample_stride=5.0, abs_tol=1e-6, rel_tol=1e-6, max_dt=0.5)
    plus = wf.Signature(np.ones(n, dtype=int))
    draws = montecarlo._draws(502, n, 0, 16)
    brackets = _solved_brackets(monkeypatch)
    stopped = 0
    for kappa in (1.01 * kc, 1.05 * kc, 1.5 * kc, 3.0 * np.max(np.abs(omega))):
        cfg = wf.SystemConfig(n=n, omega=omega, kappa=kappa)
        stable = []
        brackets.clear()
        roots = wf.solve_R_equation(cfg, plus)
        for r in roots:
            theta = equilibria._equilibrium_theta(cfg, plus.sigma, r)
            eq = wf.EquilibriumRecord(R=r, theta=theta, signature=plus, divergence=math.nan, stability="",
                                      max_eig_real=math.nan)
            if wf.classify_stability(cfg, eq) == "Stable":
                stable.append(theta)
        assert len(stable) == 1, (n, kappa)
        full = integrate_rows(cfg, SPEC, draws, opts)
        for traj, failure in full:
            if _full_horizon_hits([(traj, failure)], 0.0)[0]:
                assert np.max(np.abs(wf.wrap_to_pi(traj.states[-1] - stable[0]))) < 1e-9, (n, kappa)
        ball, _ = montecarlo._contraction_ball(cfg, SPEC, opts)
        if ball is not None:
            # theta* from the Newton root, within the branch solver's ROOT_TOL of its
            # root (d theta_i / dR = -tan theta_i / R), and at least as accurate as
            # the root that bisection of the same certified bracket to ROOT_TOL gives
            r_star, _, slope = equilibria._stable_root(cfg)
            assert np.array_equal(ball.theta, equilibria._equilibrium_theta(cfg, plus.sigma, r_star))
            near = np.abs(np.tan(stable[0])) / r_star * 2.0 * equilibria.ROOT_TOL / abs(slope)
            assert np.all(np.abs(wf.wrap_to_pi(ball.theta - stable[0])) <= near * (1.0 + 1e-6)), (n, kappa)
            (omega2, kappa2, sigma, a, b, fa, solved, _), = brackets
            k = int(np.flatnonzero(solved == max(roots))[0])
            bisected = _reference_bisect(omega2, kappa2, sigma[k:k + 1], a[k:k + 1], b[k:k + 1], fa[k:k + 1])[0][0]
            theta = equilibria._equilibrium_theta(cfg, plus.sigma, bisected)
            assert ball.residual <= np.max(np.abs(wf.vector_field(cfg, SPEC, theta))), (n, kappa)
        for r_floor in (0.0, max(roots) - 1e-3):
            runs.clear()
            hits = montecarlo._death_block(cfg, SPEC, opts, r_floor, draws)
            assert hits == _full_horizon_hits(full, r_floor), (n, kappa, r_floor)
            assert sum(hits) > 0, (n, kappa)
            for (early, _), (traj, _) in zip(runs[0], full):
                k = len(early.times) - 1
                if early.times[-1] == opts.horizon:
                    continue
                stopped += 1
                assert np.array_equal(early.states, traj.states[:k + 1])
                offset = wf.wrap_to_pi(early.states[-1] - stable[0])
                rho = np.max(np.abs(offset)) + ball.slack
                assert np.all(np.abs(traj.states[k:] - (early.states[-1] - offset)) <= rho), (n, kappa)
    assert stopped > 0


@pytest.mark.parametrize("n", [1, 3, 20])
def test_log_norm_bound_holds_for_the_jacobian(n):
    # the early exit's closed-form bound against model.jacobian: the row-sum
    # log-norm max_i (J_ii + sum_{j != i} |J_ij|) stays below it at seeded
    # points of the ball (shifted by whole turns), and meets it at the corner
    # where every |theta_i| = |theta*_i| + rho, so the bound is not loose either
    rng = np.random.default_rng(600 + n)
    omega = rng.uniform(-1.0, 1.0, n)
    opts = wf.dp45_options(horizon=10.0, sample_stride=1.0, abs_tol=1e-6, rel_tol=1e-6, max_dt=0.5)
    for ratio in (1.05, 1.5, 4.0):
        cfg = wf.SystemConfig(n=n, omega=omega, kappa=ratio * wf.critical_coupling(omega))
        ball, why = montecarlo._contraction_ball(cfg, SPEC, opts)
        assert ball is not None, why
        room = 0.5 * np.pi - np.max(np.abs(ball.theta))
        for rho in (0.05 * room, 0.5 * room, 0.95 * room):
            bound = ball.log_norm_bound(rho)
            corner = ball.theta + np.where(ball.theta < 0.0, -rho, rho)
            points = np.vstack([corner, ball.theta + rng.uniform(-rho, rho, (64, n))])
            points += 2.0 * np.pi * rng.integers(-2, 3, points.shape)
            jac = wf.jacobian(cfg, points)
            diag = np.diagonal(jac, axis1=-2, axis2=-1)
            mu = np.max(diag + np.sum(np.abs(jac), axis=-1) - np.abs(diag), axis=-1)
            assert np.all(mu <= bound + 1e-12 * cfg.kappa), (n, ratio, rho)
            assert mu[0] == pytest.approx(bound, abs=1e-12 * cfg.kappa), (n, ratio, rho)


@pytest.mark.parametrize("case", ["omega0", "negative_kappa", "n1", "below_kc", "power_cosine", "poisson", "rk4"])
def test_death_estimate_without_early_exit_or_at_its_edges(case):
    # where the early exit has no ball (kappa <= 0, below kappa_c, other
    # families, rk4_fixed) or a special one (theta* = 0 at omega = 0, N = 1),
    # the estimate is still the one-sample-at-a-time reference's, bit for bit
    omega = np.random.default_rng(77).uniform(-1, 1, 6)
    kc = wf.critical_coupling(omega)
    cfg, spec = wf.SystemConfig(n=6, omega=omega, kappa=1.5 * kc), SPEC
    if case == "omega0":
        cfg = wf.SystemConfig(n=6, omega=np.zeros(6), kappa=0.3)
    elif case == "negative_kappa":
        cfg = wf.SystemConfig(n=6, omega=0.05 * omega, kappa=-1.0)
    elif case == "n1":
        cfg = wf.SystemConfig(n=1, omega=np.array([0.4]), kappa=2.0 * wf.critical_coupling([0.4]))
    elif case == "below_kc":
        cfg = wf.SystemConfig(n=6, omega=omega, kappa=0.97 * kc)
    elif case == "power_cosine":
        spec = wf.power_cosine(2)
    elif case == "poisson":
        spec = wf.rectified_poisson(0.3)
    opts = wf.dp45_options(horizon=40.0, sample_stride=2.0, abs_tol=1e-6, rel_tol=1e-6, max_dt=0.5)
    if case == "rk4":
        opts = wf.rk4_options(dt=0.1, horizon=40.0, sample_stride=2.0)
    want = _one_at_a_time_hits(cfg, opts, 5, 24, r_floor=0.0, spec=spec)
    est = wf.empirical_death_probability(cfg, spec, opts, wf.McConfig(samples=24, seed=5))
    assert est == montecarlo._estimate(sum(want), 24)
    if case in ("omega0", "n1"):
        assert montecarlo._contraction_ball(cfg, spec, opts)[0] is not None
    else:
        assert montecarlo._contraction_ball(cfg, spec, opts)[0] is None


def test_death_block_logs_its_early_exit_only_at_debug(monkeypatch, caplog):
    monkeypatch.setattr(montecarlo, "BLOCK_SAMPLES", 64)
    omega = np.random.default_rng(77).uniform(-1, 1, 6)
    opts = wf.dp45_options(horizon=40.0, sample_stride=2.0, abs_tol=1e-6, rel_tol=1e-6, max_dt=0.5)
    strong = wf.SystemConfig(n=6, omega=omega, kappa=1.5 * wf.critical_coupling(omega))
    negative = wf.SystemConfig(n=6, omega=omega, kappa=-1.0)
    mc = wf.McConfig(samples=70, seed=5)  # two blocks

    def lines():
        return [r.getMessage() for r in caplog.records if r.name == "winfree.montecarlo"]

    with caplog.at_level(logging.INFO, logger="winfree.montecarlo"):
        wf.empirical_death_probability(strong, SPEC, opts, mc)
    assert lines() == []
    with caplog.at_level(logging.DEBUG, logger="winfree.montecarlo"):
        est = wf.empirical_death_probability(strong, SPEC, opts, mc)
        wf.empirical_death_probability(strong, SPEC, opts, wf.McConfig(samples=3, seed=5), r_floor=1.95)
        wf.empirical_death_probability(negative, SPEC, opts, wf.McConfig(samples=3, seed=5))
    sized, first, second, sized_few, above_r_star, sized_fallback, fallback = lines()
    assert sized == ("_death_block: 70 samples, 70 per chunk, 64 rows per block, 2 blocks per chunk, "
                     "126 recorded phases per row")
    assert sized_few == sized_fallback == ("_death_block: 3 samples, 3 per chunk, 64 rows per block, "
                                           "1 blocks per chunk, 126 recorded phases per row")
    assert first.startswith("death block: 64 rows, 64 stopped with a hit, 0 without, 0 to the horizon; stops at t=")
    assert second.startswith("death block: 6 rows, 6 stopped with a hit")
    for field in ("max e ", "min margins 2pi-band ", ", R_min-r_floor ", "; R* 1.", " Newton steps, f'(R*) -"):
        assert field in first
    assert est.estimate == 1.0
    # R* = 1.918 < r_floor: each row stops once its ball's R_max is below r_floor
    assert above_r_star.startswith("death block: 3 rows, 0 stopped with a hit, 3 without, 0 to the horizon; ")
    assert above_r_star.endswith("min margins 2pi-band nan, R_min-r_floor nan; R* 1.9184899600827539 after 3 "
                                 "Newton steps, f'(R*) -0.908")
    assert fallback == ("death block: 3 rows, 0 stopped with a hit, 0 without, 3 to the horizon; stops at t=nan..nan, "
                        "max e nan; min margins 2pi-band nan, R_min-r_floor nan; no early exit (kappa <= 0)")


def test_contraction_ball_memory_stays_linear_in_n():
    # theta* comes from O(N) Newton steps, not from a branch solve, whose
    # coarse grid, matrix products and cell arrays would all grow with N
    omega = np.random.default_rng([501, 200]).uniform(-1.0, 1.0, 200)
    cfg = wf.SystemConfig(n=200, omega=omega, kappa=1.5 * wf.critical_coupling(omega))
    opts = wf.dp45_options(horizon=10.0, sample_stride=1.0, abs_tol=1e-6, rel_tol=1e-6, max_dt=0.5)
    montecarlo._contraction_ball(cfg, SPEC, opts)  # one-time set-up outside the trace
    tracemalloc.start()
    try:
        ball, note = montecarlo._contraction_ball(cfg, SPEC, opts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ball is not None, note
    assert peak < 64 * 1024, peak


def test_undecided_rows_integrate_on_in_the_one_run(monkeypatch, caplog):
    # at r_floor = 0 two rows reach their first certified sample with a band
    # below 2 pi that the ball widens past 2 pi, so the ball leaves their hit
    # open there: they integrate on past that sample in the block's one run,
    # and every hit is the full-horizon hit
    runs, integrate_rows = [], integrate._integrate_rows

    def recorded(*args, **kwargs):
        runs.append(integrate_rows(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(integrate, "_integrate_rows", recorded)
    omega = np.random.default_rng([501, 3]).uniform(-1.0, 1.0, 3)
    cfg = wf.SystemConfig(n=3, omega=omega, kappa=1.05 * wf.critical_coupling(omega))
    opts = wf.dp45_options(horizon=100.0, sample_stride=1.0, abs_tol=1e-6, rel_tol=1e-6, max_dt=0.5)
    draws = montecarlo._draws(502, 3, 0, 64)
    full = integrate_rows(cfg, SPEC, draws, opts)
    ball, _ = montecarlo._contraction_ball(cfg, SPEC, opts)
    undecided = {}
    for i, (traj, _) in enumerate(full):
        lift, e = ball.nearest(traj.states)
        rho = e + ball.slack
        certified = np.flatnonzero(ball.certified(rho))
        if not certified.size:
            continue
        k = certified[0]
        lo, hi = traj.states[:k + 1].min(axis=0), traj.states[:k + 1].max(axis=0)
        widened = np.maximum(hi, lift[k] + rho[k]) - np.minimum(lo, lift[k] - rho[k])
        if np.all(hi - lo < 2.0 * np.pi) and np.any(widened >= 2.0 * np.pi):
            undecided[i] = k
    assert len(undecided) == 2
    with caplog.at_level(logging.DEBUG, logger="winfree.montecarlo"):
        hits = montecarlo._death_block(cfg, SPEC, opts, 0.0, draws)
    assert len(runs) == 1
    for i, k in undecided.items():
        assert len(runs[0][i][0].times) > k + 1, i
    assert hits == _full_horizon_hits(full, 0.0)
    assert caplog.records[-1].getMessage().startswith("death block: 64 rows, ")


def test_escape_verdict_reads_how_each_row_ended():
    # the escape block decides each row from how it ended, not from its R
    # series: a row whose R first reaches 1-delta at the horizon sample was
    # stopped there, and a row that fails recorded only R below 1-delta
    cfg = wf.SystemConfig(n=4, omega=np.zeros(4), kappa=0.5)
    opts = wf.dp45_options(horizon=2.0, sample_stride=0.25, abs_tol=1e-7, rel_tol=1e-7, max_dt=0.5)
    draws = montecarlo._draws(11, 4, 0, 64)
    free = [traj.r_series for traj, _ in integrate._integrate_rows(cfg, SPEC, draws, opts)]
    k = max(range(64), key=lambda j: free[j][-1] - free[j][:-1].max())  # R rises to the end
    assert free[k][-1] > free[k][:-1].max()
    delta = 1.0 - 0.5 * (free[k][-1] + free[k][:-1].max())
    hits = montecarlo._escape_block(cfg, SPEC, opts, delta, draws)
    assert hits == _one_at_a_time_hits(cfg, opts, 11, 64, delta=delta)
    assert not hits[k] and 0 < sum(hits) < 64
    # at kappa = 1e100 every row that does not stop at t=0 fails on its first step
    strong = wf.SystemConfig(n=4, omega=np.zeros(4), kappa=1e100)
    runs = integrate._integrate_rows(strong, SPEC, draws, opts,
                                     stop=lambda t, y, rows: wf.order_parameter(SPEC, y) >= 1.0 - delta)
    failed = [failure is not None and traj.r_series[-1] < 1.0 - delta for traj, failure in runs]
    assert 0 < sum(failed) < 64
    hits = montecarlo._escape_block(strong, SPEC, opts, delta, draws)
    assert hits == _one_at_a_time_hits(strong, opts, 11, 64, delta=delta) == [False] * 64


def test_escape_builds_no_trajectory_and_simulate_builds_one(monkeypatch):
    built = []
    real = integrate.Trajectory

    def counting(**fields):
        built.append(fields["times"][-1])
        return real(**fields)

    monkeypatch.setattr(integrate, "Trajectory", counting)
    weak = wf.SystemConfig(n=6, omega=np.zeros(6), kappa=0.02)
    opts = wf.dp45_options(horizon=10.0, sample_stride=0.25, abs_tol=1e-6, rel_tol=1e-6, max_dt=0.5)
    est = wf.estimate_escape_measure(weak, SPEC, 0.1, 10.0, opts, wf.McConfig(samples=200, seed=9))
    assert 0.0 < est.estimate < 1.0
    assert built == []
    # so does the death estimator, with a ball (rows stop) and without (rows reach the horizon)
    strong = wf.SystemConfig(n=4, omega=np.array([0.1, -0.1, 0.05, 0.0]), kappa=1.0)
    for cfg in (strong, wf.SystemConfig(n=4, omega=strong.omega, kappa=-1.0)):
        wf.empirical_death_probability(cfg, SPEC, opts, wf.McConfig(samples=70, seed=9))
    assert built == []
    traj = wf.simulate(weak, SPEC, np.zeros(6), opts)
    assert built == [10.0] and isinstance(traj, real)


def test_estimators_return_python_floats():
    mc = wf.McConfig(samples=40, seed=9)
    opts = wf.dp45_options(horizon=10.0, sample_stride=0.25, abs_tol=1e-6, rel_tol=1e-6, max_dt=0.5)
    strong = wf.SystemConfig(n=4, omega=np.array([0.1, -0.1, 0.05, 0.0]), kappa=1.0)
    weak = wf.SystemConfig(n=6, omega=np.zeros(6), kappa=0.02)
    ests = [
        wf.empirical_order_param_cdf(6, 0.8, mc),
        wf.empirical_death_probability(strong, SPEC, opts, mc),
        wf.estimate_escape_measure(weak, SPEC, 0.1, 10.0, opts, mc),
    ]
    assert [type(est.estimate) for est in ests] == [float] * 3
    assert all(0.0 < est.estimate for est in ests)


def test_wilson_interval_is_not_degenerate_at_zero_and_one():
    for successes in (0, 100):
        est = montecarlo._estimate(successes, 100)
        assert est.std_error == 0.0
        lo, hi = est.wilson_95
        assert lo <= est.estimate <= hi
        assert 0.0 <= lo < hi <= 1.0
        assert hi - lo == pytest.approx(3.84 / 103.84, rel=1e-3)  # z^2 / (n + z^2)
    mid = montecarlo._estimate(50, 100)
    lo, hi = mid.wilson_95
    assert lo == pytest.approx(0.5 - 1.96 * mid.std_error, abs=2e-3)
    assert hi == pytest.approx(0.5 + 1.96 * mid.std_error, abs=2e-3)
    record = wf.result_json_dict("death", {"n": 5}, montecarlo._estimate(0, 100), None)
    assert record["wilson_95"] == list(montecarlo._estimate(0, 100).wilson_95)
