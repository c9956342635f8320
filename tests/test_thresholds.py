import math

import numpy as np
import pytest

import winfree as wf
from winfree import thresholds
from winfree.errors import CriterionInapplicableError, DomainError
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


def test_limit_R_lower_bound_values():
    assert wf.limit_R_lower_bound(0.0, 1.0) == pytest.approx(1.0)
    assert wf.limit_R_lower_bound(0.4999, 1.0) == pytest.approx(0.71414, abs=1e-4)
    with pytest.raises(DomainError):
        wf.limit_R_lower_bound(0.5, 1.0)


def test_sincos_death_time_reference_value():
    assert wf.sincos_death_time(800, 6.0, 1.0) == pytest.approx(0.40156699, abs=1e-6)


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
