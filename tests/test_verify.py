"""verify_theorem_conclusions against the per-oscillator, per-pair loop it replaced, and edits that break it."""

import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import winfree as wf
from winfree import thresholds
from winfree.errors import PreconditionError


SPEC = wf.sinusoidal()


def _loop_conclusions(traj, config, mu):
    """Reference: the four booleans and the co-trapped pair count, one oscillator and one pair at a time."""
    r0 = float(traj.r_series[0])
    kappa = config.kappa
    slack = 10.0 * traj.solver_tol
    times = traj.times
    cos_states = np.cos(traj.states)
    tau = np.pi / (kappa * thresholds._trapping_rate(r0, mu) - config.omega_max)
    decay = kappa * (r0 - mu) * (1.0 - mu)

    r_floor_ok = bool(np.min(traj.r_series) >= r0 - mu - slack)

    trapping_ok = True
    entrance_ok = True
    first_trapped = np.full(config.n, -1, dtype=int)
    for i in range(config.n):
        hits = np.nonzero(cos_states[:, i] >= -1.0 + mu)[0]
        if hits.size == 0:
            continue
        k0 = int(hits[0])
        first_trapped[i] = k0
        if np.any(cos_states[k0:, i] < -1.0 + mu - slack):
            trapping_ok = False
        deadline = times[k0] + tau
        late = times >= deadline
        if np.any(cos_states[late, i] < 1.0 - mu - slack):
            entrance_ok = False

    ordering_ok = True
    pair_count = 0
    for i in range(config.n):
        for j in range(i + 1, config.n):
            if first_trapped[i] < 0 or first_trapped[j] < 0:
                continue
            hi, lo = (i, j) if config.omega[i] >= config.omega[j] else (j, i)
            d_omega = config.omega[hi] - config.omega[lo]
            k0 = max(first_trapped[i], first_trapped[j])
            t0 = times[k0]
            shift_hi = 2.0 * np.pi * np.round(traj.states[-1, hi] / (2.0 * np.pi))
            shift_lo = 2.0 * np.pi * np.round(traj.states[-1, lo] / (2.0 * np.pi))
            gap = (traj.states[:, hi] - shift_hi) - (traj.states[:, lo] - shift_lo)
            pair_count += 1
            late = times >= t0 + tau
            if d_omega < 1e-15:
                env = np.pi * np.exp(-decay * (times[late] - t0 - tau))
                if np.any(np.abs(gap[late]) > env + slack):
                    ordering_ok = False
                continue
            env_hi = d_omega / decay + np.pi * np.exp(-decay * (times[late] - t0 - tau))
            if np.any(gap[late] > env_hi + slack):
                ordering_ok = False
            t_low = t0 + tau + np.pi / d_omega
            very_late = times >= t_low
            env_lo = (d_omega / (2.0 * kappa)) * (1.0 - np.exp(-2.0 * kappa * (times[very_late] - t_low)))
            if np.any(gap[very_late] < env_lo - slack):
                ordering_ok = False
    return r_floor_ok, trapping_ok, entrance_ok, ordering_ok, pair_count


def _strong_system(rng):
    """A seeded system above the sinusoidal threshold: N in 1..6, some equal frequencies, either method."""
    n = int(rng.integers(1, 7))
    omega = rng.uniform(-0.3, 0.3, n)
    if n > 1 and rng.random() < 0.3:
        omega[rng.integers(n)] = omega[0]
    if rng.random() < 0.1:
        omega[:] = 0.0
    theta0 = rng.uniform(-2.0, 2.0, n)
    if n > 1 and rng.random() < 0.2:
        theta0[-1] = np.pi - rng.uniform(0.0, 0.05)  # starts outside the trapping band
    r0 = wf.order_parameter(SPEC, theta0)
    mu = rng.uniform(0.2, 0.8) * min(r0, 1.0)
    threshold = wf.sinusoidal_threshold(r0, mu, float(np.max(np.abs(omega))))
    config = wf.SystemConfig(n=n, omega=omega, kappa=float(threshold * rng.uniform(1.02, 3.0) + rng.uniform(0.0, 0.5)))
    horizon = float(rng.uniform(4.0, 12.0))
    opts = wf.dp45_options(horizon=horizon, sample_stride=0.25) if rng.random() < 0.5 else \
        wf.rk4_options(0.05, horizon, 0.25)
    return config, theta0, mu, opts


def _perturbed(traj, rng):
    """traj with one edit: an R dip, a bump or a step in one phase, one phase held at pi, or noise on all."""
    states, r_series = traj.states.copy(), traj.r_series.copy()
    samples, n = states.shape
    k, i = int(rng.integers(1, samples)), int(rng.integers(n))
    kind = int(rng.integers(5))
    if kind == 0:
        r_series[k] -= rng.uniform(0.0, 1.0)
    elif kind == 1:
        states[k:k + int(rng.integers(1, 4)), i] += rng.uniform(-np.pi, np.pi)
    elif kind == 2:
        states[k:, i] += rng.uniform(-0.5, 0.5)
    elif kind == 3:
        states[:, i] = np.pi  # never trapped
    else:
        states += rng.normal(0.0, 10 ** rng.uniform(-8, -1), states.shape)
    return replace(traj, states=states, r_series=r_series)


def test_matches_the_loop_reference_on_real_and_perturbed_runs():
    rng = np.random.default_rng(35)
    real = []
    for _ in range(300):
        config, theta0, mu, opts = _strong_system(rng)
        real.append((wf.simulate(config, SPEC, theta0, opts), config, mu, opts.method))
    perturbed = [(_perturbed(traj, rng), config, mu, method) for traj, config, mu, method in real]
    falses = np.zeros(4, dtype=int)
    for traj, config, mu, _ in real + perturbed:
        rep = wf.verify_theorem_conclusions(traj, config, mu)
        expected = _loop_conclusions(traj, config, mu)
        got = (rep.r_floor_ok, rep.trapping_ok, rep.entrance_ok, rep.ordering_ok, rep.details["co_trapped_pairs"])
        assert got == expected
        falses += [not ok for ok in expected[:4]]
    # the comparison covers both methods, N = 1, equal frequencies, never-trapped
    # oscillators and a False reading of every conclusion
    assert {method for *_, method in real} == {"rk4_fixed", "dormand_prince45"}
    assert any(config.n == 1 for _, config, *_ in real)
    assert any(len(set(config.omega)) < config.n for _, config, *_ in real)
    assert any((np.cos(traj.states) < -1.0 + mu).all(axis=0).any() for traj, _, mu, _ in perturbed)
    assert np.all(falses > 0)


def _seeded_run(omega):
    rng = np.random.default_rng(7)
    config = wf.SystemConfig(n=len(omega), omega=np.array(omega), kappa=4.0)
    traj = wf.simulate(config, SPEC, rng.uniform(-1.0, 1.0, len(omega)),
                       wf.dp45_options(horizon=20.0, sample_stride=0.05))
    return traj, config


def _edited(traj, config, mu, edit):
    """traj with the one edit that should break the named conclusion alone."""
    states, r_series = traj.states.copy(), traj.r_series.copy()
    tau = wf.verify_theorem_conclusions(traj, config, mu).details["entrance_time"]
    late = -len(traj.times) // 4  # well past the entrance time, where every envelope has closed
    if edit == "r_floor":
        r_series[len(r_series) // 2] = r_series[0] - mu - 0.01
    elif edit == "trapping":
        assert traj.times[1] < tau  # before any entrance deadline or gap check
        states[1, 0] = np.pi
    elif edit == "entrance":
        k = int(np.argmax(traj.times >= traj.times[0] + tau))  # the first sample past the deadline
        states[k, 0] = 2.0 * np.pi * np.round(states[k, 0] / (2.0 * np.pi)) + np.pi / 2  # cos = 0
    elif edit == "gap_above":
        states[late, 0] += 0.3
    elif edit == "gap_below":
        assert traj.times[late] > tau + np.pi / np.ptp(config.omega)  # past t_low, where the lower envelope starts
        states[late, 1] += 0.3
    return replace(traj, states=states, r_series=r_series)


@pytest.mark.parametrize("omega, edit, broken", [
    ([0.25, -0.25], "r_floor", "r_floor_ok"),
    ([0.25, -0.25], "trapping", "trapping_ok"),
    ([0.25, -0.25], "entrance", "entrance_ok"),
    ([0.03, 0.03], "gap_above", "ordering_ok"),
    ([0.25, -0.25], "gap_above", "ordering_ok"),
    ([0.25, -0.25], "gap_below", "ordering_ok"),
], ids=["r_floor", "trapping", "entrance", "equal_pair", "upper_envelope", "lower_envelope"])
def test_each_conclusion_reads_false_when_its_claim_is_broken(omega, edit, broken):
    traj, config = _seeded_run(omega)
    names = ("r_floor_ok", "trapping_ok", "entrance_ok", "ordering_ok")
    assert wf.verify_theorem_conclusions(traj, config, 0.5).all_ok
    rep = wf.verify_theorem_conclusions(_edited(traj, config, 0.5, edit), config, 0.5)
    assert {name: getattr(rep, name) for name in names} == {name: name != broken for name in names}


def test_kappa_a_rounding_above_the_threshold_is_refused():
    # kappa exceeds the threshold, but kappa*rate - omega_max rounds to 0.0,
    # which made the entrance time pi/0.0
    omega = np.array([-0.180290733619072, 0.2652678663038987, -0.08093389905310286])
    initial = np.array([-0.789009440859541, 0.25821630307941845, 0.8543091061357349])
    config = wf.SystemConfig(n=3, omega=omega, kappa=0.24004241589510336)
    traj = wf.simulate(config, SPEC, initial, wf.dp45_options(horizon=2.0, sample_stride=0.5))
    threshold = wf.sinusoidal_threshold(float(traj.r_series[0]), 0.5, config.omega_max)
    assert config.kappa == math.nextafter(threshold, math.inf)
    with pytest.raises(PreconditionError, match=r"> .*, but kappa\*rate - omega_max rounds to 0\.0"):
        wf.verify_theorem_conclusions(traj, config, 0.5)


def test_kappa_at_the_threshold_is_refused_with_both_values():
    traj, config = _seeded_run([0.25, -0.25])
    threshold = wf.sinusoidal_threshold(float(traj.r_series[0]), 0.5, config.omega_max)
    with pytest.raises(PreconditionError, match=re.escape(f"fails: kappa={threshold} <= {threshold}")):
        wf.verify_theorem_conclusions(traj, replace(config, kappa=threshold), 0.5)


@pytest.mark.parametrize("solver_tol", [1e308, math.inf])
def test_a_non_finite_slack_is_refused(solver_tol):
    # slack = 10 x solver_tol is inf: every check would pass whatever the trajectory
    traj, config = _seeded_run([0.25, -0.25])
    with pytest.raises(PreconditionError, match="slack 10 x solver tolerance must be finite, got inf"):
        wf.verify_theorem_conclusions(replace(traj, solver_tol=solver_tol), config, 0.5)


def test_memory_peak_stays_a_small_multiple_of_the_phases():
    # N = 200 gives 19900 co-trapped pairs: one (samples, pairs) array would
    # be 100 times the phases
    rng = np.random.default_rng(3)
    times = np.linspace(0.0, 50.0, 501)
    omega = rng.uniform(-0.05, 0.05, 200)
    states = rng.uniform(-0.3, 0.3, 200) * np.exp(-10.0 * times)[:, None] + 0.2 * omega  # locked, gaps in range
    traj = wf.Trajectory(times, states, wf.order_parameter(SPEC, states), 0, 0, 1e-9)
    config = wf.SystemConfig(n=200, omega=omega, kappa=4.0)
    tracemalloc.start()
    try:
        rep = wf.verify_theorem_conclusions(traj, config, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.all_ok and rep.details["co_trapped_pairs"] == 19900
    assert peak < 12 * states.nbytes
