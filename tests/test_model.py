import math

import numpy as np
import pytest

import winfree as wf
from winfree.errors import ConfigurationError, DomainError, UnsupportedOperationError


def test_wrap_to_pi_range():
    theta = np.linspace(-20.0, 20.0, 1001)
    w = wf.wrap_to_pi(theta)
    assert np.all(w >= -np.pi)
    assert np.all(w < np.pi)
    assert np.allclose(np.sin(w), np.sin(theta), atol=1e-12)
    assert np.allclose(np.cos(w), np.cos(theta), atol=1e-12)


def test_sinusoidal_closed_forms():
    spec = wf.sinusoidal()
    th = np.linspace(-np.pi, np.pi, 257)
    assert np.allclose(wf.influence(spec, th), 1.0 + np.cos(th))
    assert np.allclose(wf.sensitivity(spec, th), -np.sin(th))
    assert np.allclose(wf.influence_deriv(spec, th), -np.sin(th))
    assert np.allclose(wf.sensitivity_deriv(spec, th), -np.cos(th))


def test_power_cosine_reduces_to_sinusoidal():
    spec1 = wf.power_cosine(1)
    th = np.linspace(-np.pi, np.pi, 101)
    assert np.allclose(wf.influence(spec1, th), 1.0 + np.cos(th))
    spec2 = wf.power_cosine(2)
    assert np.allclose(wf.influence(spec2, th), (1.0 + np.cos(th)) ** 2)
    assert spec2.sup_I == pytest.approx(4.0)


def test_rectified_poisson_shapes():
    spec = wf.rectified_poisson(0.3)
    th = np.linspace(-np.pi, np.pi, 401)
    i_vals = wf.influence(spec, th)
    assert np.all(i_vals >= -1e-12)
    assert wf.influence(spec, 0.0) == pytest.approx(spec.sup_I)
    assert wf.influence(spec, np.pi) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DomainError):
        wf.rectified_poisson(1.0)


@pytest.mark.parametrize("build, value", [(wf.power_cosine, 0), (wf.power_cosine, 1024), (wf.power_cosine, -1),
                                          (wf.rectified_poisson, -1.0), (wf.rectified_poisson, math.nan)])
def test_family_parameters_outside_their_domain_raise_domain_error(build, value):
    # power_cosine(0) used to divide by n (ZeroDivisionError) and power_cosine(1024) to overflow 2^n
    with pytest.raises(DomainError, match="power" if build is wf.power_cosine else "r_pk"):
        build(value)


def test_power_cosine_takes_powers_up_to_1023():
    spec = wf.power_cosine(1023)
    assert spec.sup_I == 2.0**1023 and spec.c3 == 2.0**-1023 and spec.q == spec.r_exp == 2046.0


def test_custom_interaction_needs_both_tables():
    with pytest.raises(DomainError, match="tables"):
        wf.InteractionSpec(family="custom", i_table=np.ones(4))


def test_custom_interaction_tables():
    th = np.linspace(-np.pi, np.pi, 4096)
    spec = wf.custom_interaction(2.0 + np.cos(th), -np.sin(th))
    probe = np.linspace(-3.0, 3.0, 50)
    assert np.allclose(wf.influence(spec, probe), 2.0 + np.cos(probe), atol=1e-5)
    assert np.allclose(wf.sensitivity(spec, probe), -np.sin(probe), atol=1e-5)


def test_order_parameter_range_and_value():
    spec = wf.sinusoidal()
    assert wf.order_parameter(spec, np.zeros(5)) == pytest.approx(2.0)
    assert wf.order_parameter(spec, np.full(5, np.pi)) == pytest.approx(0.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        r = wf.order_parameter(spec, rng.uniform(-np.pi, np.pi, 8))
        assert 0.0 <= r <= 2.0


def test_vector_field_matches_definition():
    spec = wf.sinusoidal()
    rng = np.random.default_rng(1)
    omega = rng.uniform(-1, 1, 6)
    theta = rng.uniform(-np.pi, np.pi, 6)
    cfg = wf.SystemConfig(n=6, omega=omega, kappa=1.7)
    expected = omega + (1.7 / 6) * np.sum(1 + np.cos(theta)) * (-np.sin(theta))
    assert np.allclose(wf.vector_field(cfg, spec, theta), expected, atol=1e-12)


def test_system_config_validation():
    with pytest.raises(ConfigurationError):
        wf.SystemConfig(n=2, omega=np.array([1.0]), kappa=1.0)
    with pytest.raises(ConfigurationError):
        wf.SystemConfig(n=0, omega=np.array([]), kappa=1.0)
    with pytest.raises(ConfigurationError):
        wf.SystemConfig(n=1, omega=np.array([np.nan]), kappa=1.0)


def test_divergence_equals_trace_random():
    spec = wf.sinusoidal()
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 9))
        cfg = wf.SystemConfig(n=n, omega=rng.uniform(-1, 1, n), kappa=rng.uniform(-3, 3))
        theta = rng.uniform(-np.pi, np.pi, n)
        div = wf.divergence(cfg, spec, theta)
        tr = float(np.trace(wf.jacobian(cfg, theta)))
        assert div == pytest.approx(tr, abs=1e-12)


def test_divergence_sinusoidal_formula():
    spec = wf.sinusoidal()
    rng = np.random.default_rng(3)
    n = 5
    cfg = wf.SystemConfig(n=n, omega=rng.uniform(-1, 1, n), kappa=2.0)
    theta = rng.uniform(-np.pi, np.pi, n)
    r = wf.order_parameter(spec, theta)
    expected = 2.0 * (n * r * (1 - r) + np.sum(np.sin(theta) ** 2) / n)
    assert wf.divergence(cfg, spec, theta) == pytest.approx(expected, rel=1e-12)


def test_divergence_lower_bound_holds():
    spec = wf.sinusoidal()
    rng = np.random.default_rng(4)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        cfg = wf.SystemConfig(n=n, omega=rng.uniform(-1, 1, n), kappa=rng.uniform(0.1, 3))
        theta = rng.uniform(-np.pi, np.pi, n)
        lb = wf.divergence_lower_bound(cfg, spec, theta)
        assert wf.divergence(cfg, spec, theta) >= lb - 1e-10


def test_jacobian_finite_difference():
    spec = wf.sinusoidal()
    rng = np.random.default_rng(5)
    n = 4
    cfg = wf.SystemConfig(n=n, omega=rng.uniform(-1, 1, n), kappa=1.3)
    theta = rng.uniform(-np.pi, np.pi, n)
    jac = wf.jacobian(cfg, theta)
    eps = 1e-6
    for j in range(n):
        e = np.zeros(n)
        e[j] = eps
        col = (wf.vector_field(cfg, spec, theta + e) - wf.vector_field(cfg, spec, theta - e)) / (2 * eps)
        assert np.allclose(jac[:, j], col, atol=1e-6)


def test_potential_gradient_identity():
    spec = wf.sinusoidal()
    assert wf.is_gradient_spec(spec)
    rng = np.random.default_rng(6)
    n = 5
    cfg = wf.SystemConfig(n=n, omega=rng.uniform(-1, 1, n), kappa=0.8)
    theta = rng.uniform(-np.pi, np.pi, n)
    f_val = wf.vector_field(cfg, spec, theta)
    eps = 1e-6
    grad = np.zeros(n)
    for j in range(n):
        e = np.zeros(n)
        e[j] = eps
        grad[j] = (wf.potential(cfg, spec, theta + e) - wf.potential(cfg, spec, theta - e)) / (2 * eps)
    assert np.max(np.abs(grad + f_val)) / np.max(np.abs(f_val)) < 1e-6


def test_potential_rejects_non_gradient_spec():
    th = np.linspace(-np.pi, np.pi, 4096)
    spec = wf.custom_interaction(2.0 + np.cos(th), np.cos(th))
    assert not wf.is_gradient_spec(spec)
    cfg = wf.SystemConfig(n=2, omega=np.array([0.1, 0.2]), kappa=1.0)
    with pytest.raises(UnsupportedOperationError):
        wf.potential(cfg, spec, np.array([0.0, 1.0]))


def test_phase_state_validation():
    with pytest.raises(ConfigurationError):
        wf.PhaseState(np.array([np.inf, 0.0]))
    st = wf.PhaseState(np.array([0.1, 0.2]))
    spec = wf.sinusoidal()
    assert wf.order_parameter(spec, st) == pytest.approx(
        wf.order_parameter(spec, np.array([0.1, 0.2]))
    )


def test_load_custom_table(tmp_path):
    th = np.linspace(-np.pi, np.pi, 512)
    path = tmp_path / "table.csv"
    lines = ["theta,value"] + [f"{t:.17g},{1+math.cos(t):.17g}" for t in th]
    path.write_text("\n".join(lines) + "\n")
    table = wf.load_custom_table(path)
    assert table.shape == (4096,)
    spec = wf.custom_interaction(table, table)
    assert wf.influence(spec, 0.5) == pytest.approx(1 + math.cos(0.5), abs=1e-4)


def _non_sinusoidal_families():
    th = np.linspace(-np.pi, np.pi, 4096)
    custom = wf.custom_interaction(1.0 + np.cos(th) + 0.2 * np.sin(2 * th), -np.sin(th) + 0.1 * np.cos(th))
    # (spec, derivative tolerance): a centred difference of a linear
    # interpolant is off by about f'' * grid spacing next to the knots
    return {
        "power_cosine(2)": (wf.power_cosine(2), 1e-7),
        "rectified_poisson(0.3)": (wf.rectified_poisson(0.3), 1e-7),
        "custom": (custom, 5e-3),
    }


@pytest.mark.parametrize("name", list(_non_sinusoidal_families()))
def test_family_derivatives_match_centred_differences(name):
    spec, tol = _non_sinusoidal_families()[name]
    th = np.linspace(-3 * np.pi, 3 * np.pi, 1201)  # beyond one period: no wrapping needed by callers
    h = 1e-5
    di = (wf.influence(spec, th + h) - wf.influence(spec, th - h)) / (2 * h)
    ds = (wf.sensitivity(spec, th + h) - wf.sensitivity(spec, th - h)) / (2 * h)
    assert np.max(np.abs(wf.influence_deriv(spec, th) - di)) < tol
    assert np.max(np.abs(wf.sensitivity_deriv(spec, th) - ds)) < tol


@pytest.mark.parametrize("name", list(_non_sinusoidal_families()))
def test_family_divergence_equals_jacobian_trace(name):
    spec, _ = _non_sinusoidal_families()[name]
    rng = np.random.default_rng(7)
    h = 1e-6
    for _ in range(10):
        n = int(rng.integers(1, 8))
        cfg = wf.SystemConfig(n=n, omega=rng.uniform(-1, 1, n), kappa=rng.uniform(-3, 3))
        theta = rng.uniform(-3 * np.pi, 3 * np.pi, n)
        trace = 0.0
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            trace += (wf.vector_field(cfg, spec, theta + e)[j] - wf.vector_field(cfg, spec, theta - e)[j]) / (2 * h)
        assert wf.divergence(cfg, spec, theta) == pytest.approx(trace, abs=1e-6)
        # the Jacobian is built from the same family table, so its trace is the divergence
        assert np.trace(wf.jacobian(cfg, theta, spec)) == pytest.approx(wf.divergence(cfg, spec, theta), rel=1e-12)


@pytest.mark.parametrize("spec", [wf.sinusoidal(), wf.power_cosine(2), wf.rectified_poisson(0.3),
                                  wf.custom_interaction(np.cos(np.linspace(-np.pi, np.pi, 64)) + 1.0,
                                                        -np.sin(np.linspace(-np.pi, np.pi, 64)))],
                         ids=["sinusoidal", "power_cosine2", "poisson0.3", "custom"])
@pytest.mark.parametrize("n", [1, 3, 17])
def test_stacked_jacobian_and_divergence_rows_equal_one_dimensional_calls(spec, n):
    rng = np.random.default_rng(n)
    cfg = wf.SystemConfig(n=n, omega=rng.uniform(-1, 1, n), kappa=-1.7)
    stack = rng.uniform(-7.0, 7.0, (2, 5, n))
    jac, div = wf.jacobian(cfg, stack), wf.divergence(cfg, spec, stack)
    assert jac.shape == (2, 5, n, n) and div.shape == (2, 5)
    for idx in np.ndindex(2, 5):
        one_jac, one_div = wf.jacobian(cfg, stack[idx]), wf.divergence(cfg, spec, stack[idx])
        assert one_jac.shape == (n, n) and type(one_div) is float
        assert jac[idx].tobytes() == one_jac.tobytes()
        assert div[idx].hex() == one_div.hex()
    assert np.array_equal(wf.jacobian(cfg, wf.PhaseState(stack[0, 0])), wf.jacobian(cfg, stack[0, 0]))
    # order parameter, vector field (config.kappa and one coupling per row) and lower bound
    kappas = rng.uniform(-3.0, 3.0, (2, 5))
    r, lower = wf.order_parameter(spec, stack), wf.divergence_lower_bound(cfg, spec, stack)
    field, field_k = wf.vector_field(cfg, spec, stack), wf.vector_field(cfg, spec, stack, kappas)
    assert r.shape == lower.shape == (2, 5) and field.shape == field_k.shape == (2, 5, n)
    for idx in np.ndindex(2, 5):
        one_r, one_lower = wf.order_parameter(spec, stack[idx]), wf.divergence_lower_bound(cfg, spec, stack[idx])
        assert type(one_r) is float and type(one_lower) is float
        assert r[idx].hex() == one_r.hex() == float(np.mean(wf.influence(spec, stack[idx]))).hex()
        assert lower[idx].hex() == one_lower.hex()
        assert field[idx].tobytes() == wf.vector_field(cfg, spec, stack[idx]).tobytes()
        one_cfg = wf.SystemConfig(n=n, omega=cfg.omega, kappa=float(kappas[idx]))
        assert field_k[idx].tobytes() == wf.vector_field(one_cfg, spec, stack[idx]).tobytes()


def test_vector_field_of_a_stack_takes_each_rows_order_parameter():
    cfg = wf.SystemConfig(n=2, omega=np.array([0.1, -0.1]), kappa=1.0)
    rows = np.array([[0.3, -1.0], [2.0, 1.5]])
    expected = [[-0.417, 1.371], [-0.652, -0.925]]  # one 1-D call per row; not [[-0.280, 0.983], [-1.071, -1.384]]
    assert np.allclose(wf.vector_field(cfg, wf.sinusoidal(), rows), expected, atol=5e-4)
    assert np.allclose(wf.vector_field(cfg, wf.sinusoidal(), rows, [1.0, 1.0]), expected, atol=5e-4)
