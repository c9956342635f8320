import ast
import dataclasses
import inspect
import math
import textwrap

import numpy as np
import pytest

import winfree as wf
from winfree import thresholds
from winfree.errors import ConfigurationError, CriterionInapplicableError, DomainError
from winfree.thresholds import BoundParams


SPEC = wf.sinusoidal()


def test_kc_coefficient_branches_and_continuity():
    assert wf.kc_coefficient(1.0) == pytest.approx(2.0)
    assert wf.kc_coefficient(0.25) == pytest.approx(2.0 / 0.25**1.5)
    assert wf.kc_coefficient(2.0) == pytest.approx(4.0 / (3 * math.sqrt(3)))
    assert wf.kc_coefficient(1.0 - 1e-12) == pytest.approx(wf.kc_coefficient(1.0 + 1e-12), abs=1e-9)
    grid = np.linspace(0.01, 2.0, 2000)
    vals = np.array([wf.kc_coefficient(r) for r in grid])
    assert np.all(np.diff(vals) <= 1e-12)


def test_sinusoidal_threshold_matches_kc_at_special_mu():
    mu_star = 1.0 - math.sqrt(2) / 2
    w = 0.37
    assert wf.sinusoidal_threshold(1.0, mu_star, w) == pytest.approx(wf.kc_coefficient(1.0) * w, rel=1e-12)


def test_general_threshold_sinusoidal_value():
    assert wf.general_threshold(SPEC, 1.0, 1.0) == pytest.approx(2 * math.pi, rel=1e-12)


def test_toy_thresholds_sinusoidal():
    cfg = wf.SystemConfig(n=3, omega=np.array([1.0, -0.5, 0.2]), kappa=1.0)
    kappa_vt, kappa_tr = wf.toy_thresholds(SPEC, cfg, [0, 1, 2])
    assert kappa_vt == pytest.approx(4 * 3 / (3 * math.sqrt(3)), rel=1e-6)
    assert kappa_tr is None  # min I = 0 for the sinusoidal influence


def test_toy_thresholds_zero_frequencies():
    cfg = wf.SystemConfig(n=2, omega=np.zeros(2), kappa=1.0)
    kappa_vt, _ = wf.toy_thresholds(SPEC, cfg, [0, 1])
    assert kappa_vt == 0.0


def test_toy_thresholds_custom_trivial():
    th = np.linspace(-np.pi, np.pi, 4096)
    spec = wf.custom_interaction(2.0 + np.cos(th), -np.sin(th))
    cfg = wf.SystemConfig(n=4, omega=np.array([1.0, 0.3, -0.2, 0.5]), kappa=1.0)
    _, kappa_tr = wf.toy_thresholds(spec, cfg, [0, 1, 2, 3])
    assert kappa_tr == pytest.approx(1.0, abs=1e-3)


@pytest.mark.parametrize("spec", [wf.power_cosine(2), wf.rectified_poisson(0.3)], ids=["power_cosine2", "poisson0.3"])
def test_toy_thresholds_match_dense_grid(spec):
    cfg = wf.SystemConfig(n=3, omega=np.array([1.0, -0.5, 0.2]), kappa=1.0)
    kappa_vt, kappa_tr = wf.toy_thresholds(spec, cfg, [0, 1, 2])
    th = np.linspace(-np.pi, np.pi, 2**20 + 1)
    i_vals, s_vals = wf.influence(spec, th), wf.sensitivity(spec, th)
    is_vals = i_vals * s_vals
    # a grid of spacing h misses a smooth extremum by O(h^2) ~ 1e-11
    omega_b = float(np.max(np.abs(cfg.omega)))
    assert kappa_vt == pytest.approx(cfg.n * omega_b / min(-is_vals.min(), is_vals.max()), rel=1e-9)
    assert i_vals.min() == 0.0 and kappa_tr is None  # I(+-pi) = 0 for both kernels


def test_toy_thresholds_inapplicable():
    th = np.linspace(-np.pi, np.pi, 4096)
    spec = wf.custom_interaction(1.0 + np.cos(th), np.ones_like(th))
    cfg = wf.SystemConfig(n=2, omega=np.array([0.5, -0.5]), kappa=1.0)
    with pytest.raises(CriterionInapplicableError):
        wf.toy_thresholds(spec, cfg, [0, 1])


def test_partial_death_worked_example():
    cfg = wf.SystemConfig(n=4, omega=np.array([0.5, -0.5, 0.2, 0.1]), kappa=10.0)
    rep = wf.check_partial_death_criterion(
        cfg, SPEC, np.array([0.0, 0.0, np.pi, np.pi]), [0, 1], [0, 1, 2, 3], 0.9
    )
    assert rep.satisfied
    assert rep.lhs == pytest.approx(1.0)
    assert rep.rhs == pytest.approx(0.9007, abs=1e-4)


def test_partial_death_weak_coupling_fails():
    cfg = wf.SystemConfig(n=4, omega=np.array([0.5, -0.5, 0.2, 0.1]), kappa=0.4)
    rep = wf.check_partial_death_criterion(
        cfg, SPEC, np.array([0.0, 0.0, np.pi, np.pi]), [0, 1], [0, 1, 2, 3], 0.9
    )
    assert not rep.satisfied


def test_partial_death_monotone_in_kappa():
    rng = np.random.default_rng(0)
    initial = rng.uniform(-0.3, 0.3, 4)
    omega = rng.uniform(-0.3, 0.3, 4)
    satisfied = []
    for kappa in np.linspace(0.05, 20.0, 40):
        cfg = wf.SystemConfig(n=4, omega=omega, kappa=float(kappa))
        rep = wf.check_partial_death_criterion(cfg, SPEC, initial, [0, 1, 2, 3], [0, 1, 2, 3], 0.5)
        satisfied.append(rep.satisfied)
    # once satisfied, stays satisfied for larger kappa
    first = satisfied.index(True) if True in satisfied else len(satisfied)
    assert all(satisfied[first:])


def test_partial_death_requires_subset():
    cfg = wf.SystemConfig(n=4, omega=np.zeros(4), kappa=1.0)
    with pytest.raises(DomainError):
        wf.check_partial_death_criterion(cfg, SPEC, np.zeros(4), [0, 1], [1, 2], 0.5)


@pytest.mark.parametrize("a_set, b_set", [
    ([], [0, 1]),  # an empty A once reached np.min of nothing
    ([], []),
    ([0], [0, 3]),
    ([-1], [0, -1]),
    ([1.0], [0, 1]),
    ([True], [0, 1]),
], ids=["empty_A", "empty_B", "past_N", "negative", "float", "bool"])
def test_partial_death_index_sets_must_be_oscillator_indices(a_set, b_set):
    cfg = wf.SystemConfig(n=3, omega=np.array([0.5, -0.5, 0.2]), kappa=10.0)
    with pytest.raises(DomainError, match="non-empty set of oscillator indices 0..2"):
        wf.check_partial_death_criterion(cfg, SPEC, np.zeros(3), a_set, b_set, 0.9)


@pytest.mark.parametrize("initial, message", [
    (np.zeros(2), "length"),  # once read as two of the three phases and reported satisfied
    (np.zeros(4), "length"),
    (np.array([0.0, math.nan, 0.0]), "finite"),
])
def test_partial_death_initial_state_is_checked_like_the_step_loop(initial, message):
    cfg = wf.SystemConfig(n=3, omega=np.array([0.5, -0.5, 0.2]), kappa=10.0)
    with pytest.raises(ConfigurationError, match=message):
        wf.check_partial_death_criterion(cfg, SPEC, initial, [0], [0, 1, 2], 0.9)


@pytest.mark.parametrize("subset", [[], [5], [-1], [0, 3], [0.0]],
                         ids=["empty", "past_N", "negative", "one_past_N", "float"])
def test_toy_thresholds_subset_must_be_oscillator_indices(subset):
    # [5] once raised IndexError and [-1] took the last oscillator
    cfg = wf.SystemConfig(n=3, omega=np.array([0.5, -0.5, 0.2]), kappa=1.0)
    with pytest.raises(DomainError, match="subset must be a non-empty set of oscillator indices 0..2"):
        wf.toy_thresholds(SPEC, cfg, subset)


def test_index_sets_take_numpy_integers_and_repeats():
    cfg = wf.SystemConfig(n=3, omega=np.array([0.5, -0.5, 0.2]), kappa=10.0)
    assert wf.toy_thresholds(SPEC, cfg, np.array([0, 1])) == wf.toy_thresholds(SPEC, cfg, [1, 0, 1])
    a = wf.check_partial_death_criterion(cfg, SPEC, np.zeros(3), np.array([0]), range(3), 0.9)
    assert a == wf.check_partial_death_criterion(cfg, SPEC, np.zeros(3), [0, 0], [2, 1, 0], 0.9)


def test_limit_R_lower_bound_values():
    assert wf.limit_R_lower_bound(0.0, 1.0) == pytest.approx(1.0)
    assert wf.limit_R_lower_bound(0.4999, 1.0) == pytest.approx(0.71414, abs=1e-4)
    with pytest.raises(DomainError):
        wf.limit_R_lower_bound(0.5, 1.0)


def test_sincos_death_time_reference_value():
    assert wf.sincos_death_time(800, 6.0, 1.0) == pytest.approx(0.40156699, abs=1e-6)


def test_sincos_death_time_rejects_an_underflowing_decay_rate():
    # kappa * N * epsilon (5 - epsilon) / 25 underflows to 0, so T0 would divide by 0
    with pytest.raises(DomainError, match="decay rate"):
        wf.sincos_death_time(10, 1e-300, 1e-300)


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(BoundParams)])
def test_bound_params_refuse_nan(name):
    # a NaN passed through the bounds' min/max and comparisons and came out a finite value
    with pytest.raises(DomainError, match=f"must not be NaN: {name}"):
        BoundParams(**{name: math.nan})


def test_probability_bound_sincos_main():
    val = wf.probability_bound("SincosMain", 800, BoundParams(epsilon=1.0))
    assert val == pytest.approx(1.0 - 1.266e-14, abs=1e-16)


def test_probability_bound_order_param_cdf():
    val = wf.probability_bound("OrderParamCDF", 10, BoundParams(t_level=0.2))
    assert val == pytest.approx(min(math.exp(-6.4), (math.sqrt(math.pi * math.e * 0.2) / 2) ** 10), rel=1e-9)
    assert val == pytest.approx(1.662e-3, abs=2e-6)


def test_order_param_cdf_monotonicity():
    ts = np.linspace(0.05, 0.95, 19)
    vals = [wf.probability_bound("OrderParamCDF", 10, BoundParams(t_level=float(t))) for t in ts]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    for t in (0.2, 0.5, 0.8):
        v5 = wf.probability_bound("OrderParamCDF", 5, BoundParams(t_level=t))
        v20 = wf.probability_bound("OrderParamCDF", 20, BoundParams(t_level=t))
        assert v20 <= v5 + 1e-15


def test_probability_bound_domain_errors():
    with pytest.raises(DomainError):
        wf.probability_bound("SincosMain", 800, BoundParams(epsilon=1.5))
    with pytest.raises(DomainError):
        wf.probability_bound("EscapeMeasure", 10, BoundParams(delta=1.5, T=1.0, kappa=1.0))
    with pytest.raises(DomainError):
        wf.probability_bound("SincosTime", 1, BoundParams(epsilon=0.5, kappa=1.0, T=1.0))


_QUANT = wf.power_cosine(2)

# kind -> (a valid call, calls with a missing or out-of-range required parameter)
_DOMAIN_CASES = {
    "SincosMain": ((10, BoundParams(epsilon=0.5), None), [
        (10, BoundParams(), None),
        (10, BoundParams(epsilon=0.0), None),
        (0, BoundParams(epsilon=0.5), None),
    ]),
    "SincosTime": ((10, BoundParams(epsilon=0.5, kappa=1.0, T=1.0), None), [
        (10, BoundParams(epsilon=0.5, kappa=1.0), None),
        (10, BoundParams(epsilon=1.5, kappa=1.0, T=1.0), None),
        (10, BoundParams(epsilon=0.5, kappa=0.0, T=1.0), None),
        (10, BoundParams(epsilon=0.5, kappa=1.0, T=-1.0), None),
    ]),
    "OrderParamCDF": ((10, BoundParams(t_level=0.5), None), [
        (10, BoundParams(), None),
        (10, BoundParams(t_level=1.0), None),
        (10, BoundParams(t_level=0.0), None),
    ]),
    "GeneralMaincor": ((10, BoundParams(R_star=0.5, sup_I=2.0), None), [
        (10, BoundParams(sup_I=2.0), None),
        (10, BoundParams(R_star=0.5), None),
        (10, BoundParams(R_star=-0.5, sup_I=2.0), None),
        (10, BoundParams(R_star=0.5, sup_I=0.0), SPEC),
    ]),
    "KappaLarge": ((10, BoundParams(C_mu=0.5, beta=0.5, kappa=50.0, omega_max=1.0), _QUANT), [
        (10, BoundParams(C_mu=0.5, beta=0.5, kappa=50.0, omega_max=1.0), None),
        (10, BoundParams(beta=0.5, kappa=50.0, omega_max=1.0), _QUANT),
        (10, BoundParams(C_mu=0.5, beta=0.0, kappa=50.0, omega_max=1.0), _QUANT),
        (10, BoundParams(C_mu=0.5, beta=0.5, kappa=-1.0, omega_max=1.0), _QUANT),
        (10, BoundParams(C_mu=0.5, beta=0.5, kappa=50.0), _QUANT),
    ]),
    "QuantIS": ((10, BoundParams(kappa=2.0, T=3.0), _QUANT), [
        (10, BoundParams(kappa=2.0, T=3.0), None),
        (10, BoundParams(T=3.0), _QUANT),
        (10, BoundParams(kappa=0.0, T=3.0), _QUANT),
        (10, BoundParams(kappa=2.0), _QUANT),
        (10, BoundParams(kappa=2.0, T=-0.1), _QUANT),
    ]),
    "EscapeMeasure": ((10, BoundParams(delta=0.5, kappa=2.0, T=1.0), None), [
        (10, BoundParams(kappa=2.0, T=1.0), None),
        (10, BoundParams(delta=1.0, kappa=2.0, T=1.0), None),
        (1, BoundParams(delta=0.5, kappa=2.0, T=1.0), None),
        (10, BoundParams(delta=0.5, T=1.0), None),
        (10, BoundParams(delta=0.5, kappa=2.0, T=-1.0), None),
    ]),
    "NoSuchBound": (None, [(10, BoundParams(epsilon=0.5, t_level=0.5), SPEC)]),
}


@pytest.mark.parametrize("kind", list(_DOMAIN_CASES))
def test_probability_bound_rejects_missing_or_out_of_range_parameters(kind):
    valid, bad_calls = _DOMAIN_CASES[kind]
    if valid is not None:
        n, params, spec = valid
        assert 0.0 <= wf.probability_bound(kind, n, params, spec=spec) <= 1.0
    for n, params, spec in bad_calls:
        with pytest.raises(DomainError):
            wf.probability_bound(kind, n, params, spec=spec)


def test_bound_table_directions():
    upper = {kind for kind, bound in thresholds.BOUNDS.items() if bound.upper}
    assert upper == {"OrderParamCDF", "EscapeMeasure"}
    assert set(_DOMAIN_CASES) - {"NoSuchBound"} == set(thresholds.BOUNDS)
    doc = " ".join(wf.probability_bound.__doc__.split())
    upper_doc, lower_doc = doc.split("Upper bounds:")[1].split("Lower bounds")
    for kind, bound in thresholds.BOUNDS.items():
        assert kind in (upper_doc if bound.upper else lower_doc), kind


@pytest.mark.parametrize("kind", list(thresholds.BOUNDS))
def test_bound_families_follow_the_formula(kind):
    # a formula that never reads spec cannot tell the families apart, so it may
    # list the sinusoidal family only, the one its closed form was proved for
    bound = thresholds.BOUNDS[kind]
    node = ast.parse(textwrap.dedent(inspect.getsource(bound.formula)))
    reads_spec = any(isinstance(n, ast.Name) and n.id == "spec" and isinstance(n.ctx, ast.Load) for n in ast.walk(node))
    assert "sinusoidal" in bound.families and set(bound.families) <= set(wf.model.FAMILIES), bound.families
    assert (set(bound.families) != {"sinusoidal"}) == reads_spec, (kind, bound.families)


def test_probability_bounds_clamped():
    kinds = [
        ("SincosMain", 5, BoundParams(epsilon=0.1)),
        ("SincosTime", 5, BoundParams(epsilon=0.5, kappa=0.5, T=0.01)),
        ("OrderParamCDF", 3, BoundParams(t_level=0.99)),
        ("GeneralMaincor", 3, BoundParams(R_star=0.1)),
        ("EscapeMeasure", 4, BoundParams(delta=0.9, T=0.5, kappa=0.5)),
    ]
    for kind, n, params in kinds:
        v = wf.probability_bound(kind, n, params, spec=SPEC)
        assert 0.0 <= v <= 1.0


def test_escape_measure_all_delta_ranges():
    for delta in (0.1, 0.3, 0.6, 0.9):
        for t_horizon in (0.01, 1.0, 100.0):
            v = wf.probability_bound(
                "EscapeMeasure", 10, BoundParams(delta=delta, T=t_horizon, kappa=2.0)
            )
            assert 0.0 <= v <= 1.0


def test_verify_interaction_conditions_sinusoidal_all_pass():
    reports = wf.verify_interaction_conditions(SPEC, 4096)
    assert len(reports) == 7
    assert all(r.satisfied for r in reports)


def test_verify_interaction_conditions_power_cosine():
    for n in (1, 2, 3):
        reports = wf.verify_interaction_conditions(wf.power_cosine(n), 2048)
        assert all(r.satisfied for r in reports), [r.detail for r in reports if not r.satisfied]


def test_verify_interaction_conditions_bad_constant_fails():
    from dataclasses import replace

    bad = replace(SPEC, c2=0.1)
    reports = wf.verify_interaction_conditions(bad, 1024)
    assert not all(r.satisfied for r in reports)


def test_appendix_inequality():
    grid = np.linspace(2.0 / 10**4, 2.0, 10**4)
    min_margin, _ = wf.appendix_inequality_check(grid)
    assert min_margin >= -1e-9
    assert wf.appendix_inequality_check(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-12)
    assert wf.appendix_inequality_check(np.array([2.0]))[0] == pytest.approx(0.0, abs=1e-12)


def test_appendix_mu_closed_form():
    assert wf.appendix_mu(1.0) == pytest.approx(1.0 - math.sqrt(2) / 2)
    assert wf.appendix_mu(2.0) == pytest.approx(0.5)


@pytest.mark.parametrize("steps, stop_width", [(30, 0.0), (200, 1e-12), (200, 1e-11), (1, 0.0), (7, 0.0)])
def test_bisect_walk_equals_one_midpoint_at_a_time(steps, stop_width):
    # verdicts that are not monotone: the walk must still follow the
    # one-at-a-time bisection, asking about 2**_WALK_DEPTH - 1 midpoints per
    # round (fewer only when fewer steps remain); 1e-11 stops after 38 steps,
    # mid-round unless _WALK_DEPTH divides 38
    def above(x):
        return math.sin(1e3 * x) > -0.2

    def done(a, b):
        return (b - a) <= stop_width * b

    a, b, taken = 0.25, 3.0, 0
    while taken < steps:
        mid = 0.5 * (a + b)
        a, b = (mid, b) if above(mid) else (a, mid)
        taken += 1
        if done(a, b):
            break
    batches = []

    def batch_above(points):
        batches.append(len(points))
        return [above(x) for x in points]

    assert thresholds._bisect_walk(batch_above, 0.25, 3.0, steps, done) == (a, b)
    depth = thresholds._WALK_DEPTH
    assert batches == [2 ** min(depth, steps - depth * k) - 1 for k in range(-(-taken // depth))]


@pytest.mark.parametrize("steps, stop_width", [(30, 0.0), (200, 1e-12), (200, 1e-11), (1, 0.0)])
@pytest.mark.parametrize("guess", [
    lambda a, b: a, lambda a, b: b, lambda a, b: 0.5 * (a + b), lambda a, b: a + 0.3 * (b - a),
    lambda a, b: 1.7, lambda a, b: -5.0,  # also outside the bracket
])
def test_guessed_bisect_walk_equals_one_midpoint_at_a_time(steps, stop_width, guess):
    # whatever the guess, the walk follows the one-at-a-time bisection over
    # non-monotone verdicts; a round is the path toward the guess, and the
    # next round starts where a verdict left it
    def above(x):
        return math.sin(1e3 * x) > -0.2

    def done(a, b):
        return (b - a) <= stop_width * b

    a, b, taken = 0.25, 3.0, 0
    visited = [(a, b)]
    while taken < steps:
        mid = 0.5 * (a + b)
        a, b = (mid, b) if above(mid) else (a, mid)
        visited.append((a, b))
        taken += 1
        if done(a, b):
            break
    batches, brackets = [], []

    def batch_above(points):
        batches.append(len(points))
        return [above(x) for x in points]

    def recorded_guess(a, b):
        brackets.append((a, b))
        return guess(a, b)

    assert thresholds._bisect_walk(batch_above, 0.25, 3.0, steps, done, recorded_guess) == (a, b)
    assert len(brackets) == len(batches) and sum(batches) >= taken
    assert brackets[0] == (0.25, 3.0) and set(brackets) <= set(visited)


def test_bisect_walk_without_a_prediction_takes_subtree_rounds():
    # a guess of None makes that round the seven-midpoint subtree round, so a
    # guess that never predicts gives the guess-less batches, and one that
    # predicts in some rounds only still ends on the one-at-a-time bracket
    def above(x):
        return math.sin(1e3 * x) > -0.2

    a, b = 0.25, 3.0
    for _ in range(30):
        mid = 0.5 * (a + b)
        a, b = (mid, b) if above(mid) else (a, mid)
    batches = []

    def batch_above(points):
        batches.append(len(points))
        return [above(x) for x in points]

    assert thresholds._bisect_walk(batch_above, 0.25, 3.0, 30, guess=lambda a, b: None) == (a, b)
    assert batches == [7] * 10
    rounds = []

    def sometimes(lo, hi):
        rounds.append((lo, hi))
        return None if len(rounds) % 2 else lo + 0.3 * (hi - lo)

    batches.clear()
    assert thresholds._bisect_walk(batch_above, 0.25, 3.0, 30, guess=sometimes) == (a, b)
    assert batches[::2] == [7] * len(batches[::2]) and len(rounds) == len(batches) >= 3


def test_guessed_bisect_walk_takes_one_batch_when_the_guess_is_right():
    target = 1.0 / 3.0
    batches = []

    def above(points):
        batches.append(len(points))
        return [x < target for x in points]

    a, b = thresholds._bisect_walk(above, 0.0, 1.0, 200, lambda a, b: (b - a) <= 1e-12 * b, lambda a, b: target)
    assert a < target < b and b - a <= 1e-12 * b
    assert batches == [42]
