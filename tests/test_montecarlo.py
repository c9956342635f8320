import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import winfree as wf
from winfree import montecarlo
from winfree.errors import ConfigurationError, DomainError, IntegrationFailure


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


def test_worker_count_invariance():
    mc1 = wf.McConfig(samples=60, seed=7, workers=1)
    mc3 = wf.McConfig(samples=60, seed=7, workers=3)
    e1 = wf.empirical_order_param_cdf(8, 0.9, mc1)
    e3 = wf.empirical_order_param_cdf(8, 0.9, mc3)
    assert e1 == e3


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


def test_escape_measure_dominated_by_bound():
    cfg = wf.SystemConfig(n=10, omega=np.zeros(10), kappa=2.0)
    opts = wf.dp45_options(horizon=10.0, sample_stride=0.25, abs_tol=1e-7, rel_tol=1e-7, max_dt=0.5)
    mc = wf.McConfig(samples=300, seed=11)
    est = wf.estimate_escape_measure(cfg, SPEC, 0.5, 10.0, opts, mc)
    bound = wf.probability_bound(
        "EscapeMeasure", 10, wf.BoundParams(delta=0.5, T=10.0, kappa=2.0)
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


def _one_at_a_time_hits(cfg, opts, seed, samples, r_floor=None, delta=None):
    """The estimators' per-sample rules, one simulate call per sample."""
    hits = []
    for k in range(samples):
        theta0 = montecarlo._draws(seed, cfg.n, k, k + 1)[0]
        if delta is None:
            try:
                traj = wf.simulate(cfg, SPEC, theta0, opts)
            except IntegrationFailure:
                hits.append(False)
                continue
            hits.append(bool(np.all(wf.detect_death(traj, 0.0))) and traj.r_series[-1] >= r_floor)
        else:
            level = 1.0 - delta
            traj = wf.simulate(cfg, SPEC, theta0, opts,
                               stop_condition=lambda t, y: wf.order_parameter(SPEC, y) >= level)
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
    hits = montecarlo._death_block(cfg, SPEC, opts, 0.0, 0.0, 5, 0, 16)
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
