import json
import logging
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import winfree as wf
from winfree import equilibria, model
from winfree.equilibria import Signature, solve_R_equation
from winfree.errors import DegenerateFrequenciesError, DomainError, SizeLimitError


SPEC = wf.sinusoidal()


def _vector_field_norm(cfg, record):
    return float(np.max(np.abs(wf.vector_field(cfg, SPEC, record.theta))))


def test_single_oscillator_equilibria():
    cfg = wf.SystemConfig(n=1, omega=np.array([0.1]), kappa=1.0)
    records = sorted(wf.enumerate_equilibria(cfg), key=lambda r: r.R)
    assert len(records) == 2
    assert records[0].R == pytest.approx(0.17634, abs=1e-4)
    assert records[0].stability == "Unstable"
    assert records[1].R == pytest.approx(1.99875, abs=1e-4)
    assert records[1].stability == "Stable"
    for rec in records:
        assert _vector_field_norm(cfg, rec) < 1e-9


def test_equilibria_are_fixed_points():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        cfg = wf.SystemConfig(n=n, omega=rng.uniform(-0.3, 0.3, n), kappa=rng.uniform(0.8, 3.0))
        for rec in wf.enumerate_equilibria(cfg):
            assert _vector_field_norm(cfg, rec) < 1e-8


def test_zero_frequency_bipolar_equilibria():
    cfg = wf.SystemConfig(n=3, omega=np.zeros(3), kappa=1.0)
    records = wf.enumerate_equilibria(cfg)
    # each oscillator sits at 0 or pi; R = 2m/N for m phases at zero
    assert len(records) == 2**3
    rs = sorted(r.R for r in records)
    expected = sorted(2.0 * (3 - bin(bits).count("1")) / 3 for bits in range(8))
    assert np.allclose(rs, expected)
    for rec in records:
        assert np.all(np.isin(np.round(np.abs(rec.theta), 9), [0.0, round(np.pi, 9)]))


def test_solve_R_equation_all_plus():
    cfg = wf.SystemConfig(n=2, omega=np.array([0.1, 0.2]), kappa=1.0)
    roots = solve_R_equation(cfg, Signature(np.array([1, 1])))
    for r in roots:
        f = 1.0 + np.mean(np.sqrt(1.0 - (cfg.omega / (cfg.kappa * r)) ** 2)) - r
        assert abs(f) < 1e-10


def test_below_critical_coupling_no_equilibria():
    omega = np.array([1.0, -0.5, 0.3])
    kc = wf.critical_coupling(omega)
    low = wf.SystemConfig(n=3, omega=omega, kappa=0.95 * kc)
    high = wf.SystemConfig(n=3, omega=omega, kappa=1.05 * kc)
    assert len(wf.enumerate_equilibria(low)) == 0
    assert len(wf.enumerate_equilibria(high)) > 0


def test_critical_coupling_equal_frequencies():
    for n in (1, 2, 8, 16):
        kc = wf.critical_coupling(np.ones(n))
        assert kc == pytest.approx(4.0 / (3 * math.sqrt(3)), abs=1e-9)


def test_critical_coupling_closed_form_single_nonzero():
    # closed form for omega = (1, 0, ..., 0)
    for n in (2, 3, 5):
        s = math.sqrt(4 * n * n - 4 * n + 9)
        exact = 16 * n / ((6 * n - 3 + s) * math.sqrt(5 - 2 * n + s) * math.sqrt(3 + 2 * n - s))
        omega = np.zeros(n)
        omega[0] = 1.0
        assert wf.critical_coupling(omega) == pytest.approx(exact, rel=1e-10)


def test_critical_coupling_zero_and_scaling():
    assert wf.critical_coupling(np.zeros(4)) == 0.0
    omega = np.array([0.7, -0.2, 0.4])
    assert wf.critical_coupling(3.0 * omega) == pytest.approx(3.0 * wf.critical_coupling(omega), rel=1e-10)


@pytest.mark.parametrize("omega", [[math.nan, 1.0], [math.inf], [], [[0.1, 0.2]]], ids=["nan", "inf", "empty", "2d"])
def test_critical_coupling_refuses_frequencies_that_are_not_a_finite_vector(omega):
    # nan and inf used to return nan, and [] to raise numpy's bare ValueError
    with pytest.raises(wf.errors.InputError, match="omega"):
        wf.critical_coupling(omega)


def test_critical_coupling_bounds_random():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        omega = rng.uniform(-2, 2, n)
        if np.max(np.abs(omega)) == 0.0:
            continue
        ratio = wf.critical_coupling(omega) / np.max(np.abs(omega))
        assert 2 * n / (4 * n - 1) - 1e-12 <= ratio <= 4 / (3 * math.sqrt(3)) + 1e-12


def test_w_polynomial_reference_coefficients():
    cfg = wf.SystemConfig(n=1, omega=np.array([0.1]), kappa=1.0)
    w = wf.build_W_polynomial(cfg)
    assert w.degree == 4
    assert np.allclose(w.coeffs, [0.01, 0.0, 0.0, -2.0, 1.0], atol=1e-12)


def test_w_polynomial_exact_matches_float():
    rng = np.random.default_rng(2)
    for _ in range(5):
        n = int(rng.integers(1, 5))
        cfg = wf.SystemConfig(n=n, omega=rng.uniform(-0.5, 0.5, n), kappa=rng.uniform(0.5, 2.0))
        wf_float = wf.build_W_polynomial(cfg)
        wf_exact = wf.build_W_polynomial(cfg, exact=True)
        assert wf_float.degree == 2 ** (n + 1)
        diffs = [abs(a - float(b)) for a, b in zip(wf_float.coeffs, wf_exact.coeffs)]
        assert max(diffs) < 1e-9


@pytest.mark.parametrize("omega,kappa", [([0.1, -0.2], 1.0), ([1e-13, -2e-13], 1e-12), ([0.3, -0.45, 0.15], 0.7)])
def test_exact_w_polynomial_reads_only_the_frequency_ratios(omega, kappa):
    # W reads omega_j/kappa alone, and scaling omega and kappa by 2^-45 or 2^45
    # keeps those ratios to the last bit: the exact build gives the same
    # Fractions at each scale, and they match the float build (rounding omega
    # and kappa apart divided by kappa = 0 at 2^-45, and at kappa = 1e-12
    # built W for omega = 0)
    builds = []
    for shift in (-45, 0, 45):
        cfg = wf.SystemConfig(n=len(omega), omega=np.ldexp(omega, shift), kappa=math.ldexp(kappa, shift))
        builds.append((wf.build_W_polynomial(cfg, exact=True).coeffs.tolist(), wf.build_W_polynomial(cfg).coeffs))
    (exact, floats), *scaled = builds
    assert all(isinstance(c, Fraction) for c in exact)
    for other_exact, other_floats in scaled:
        assert other_exact == exact
        assert other_floats.tobytes() == floats.tobytes()
    assert np.max(np.abs(floats - np.array(exact, dtype=float))) <= 1e-15 * np.max(np.abs(floats))


@pytest.mark.parametrize("omega,kappa", [([1e150, -1e150], 1e-300), ([1e160, 0.5], 1.0)])
def test_overflowing_frequency_ratios_give_no_w_and_no_warning(omega, kappa):
    # omega/kappa (or its square) overflows: the frequencies do not vanish,
    # no root lies on [max|omega|/|kappa|, 2], W is refused, and none of this
    # prints a RuntimeWarning (the suite turns one into an error)
    cfg = wf.SystemConfig(n=2, omega=np.array(omega), kappa=kappa)
    assert not equilibria._frequencies_vanish(cfg)
    assert equilibria._stable_root(cfg) is None
    assert solve_R_equation(cfg, Signature(np.array([1, -1]))) == []
    assert wf.enumerate_equilibria(cfg) == []
    for exact in (False, True):
        with pytest.raises(DomainError, match="must be finite"):
            wf.build_W_polynomial(cfg, exact=exact)


def test_equilibrium_R_values_are_w_roots():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        cfg = wf.SystemConfig(n=n, omega=rng.uniform(-0.4, 0.4, n), kappa=rng.uniform(0.6, 2.5))
        records = wf.enumerate_equilibria(cfg)
        assert len(records) <= 2 ** (n + 1)
        if not records:
            continue
        w = wf.build_W_polynomial(cfg)
        roots = w.roots_in(0.0, 2.1)
        for rec in records:
            assert np.min(np.abs(roots - rec.R)) < 1e-6


def test_w_build_products_are_numpy_convolve_bytes():
    # the W build's products skip np.convolve's wrapper; every product must
    # keep its bytes, float and Fraction, whichever factor is longer
    rng = np.random.default_rng(32)
    for _ in range(400):
        a, b = rng.standard_normal(rng.integers(1, 40)), rng.standard_normal(rng.integers(1, 40))
        assert equilibria._convolve(a, b).tobytes() == np.convolve(a, b).tobytes()
        assert equilibria._convolve(b, a).tobytes() == np.convolve(b, a).tobytes()
    a = np.array([Fraction(1, 3), Fraction(-2, 7), Fraction(5)])
    b = np.array([Fraction(3, 11), Fraction(1)])
    for x, y in ((a, b), (b, a), (a, a[:1])):
        got = equilibria._convolve(x, y)
        assert got.dtype == object and list(got) == list(np.convolve(x, y))


def test_w_polynomial_size_limit():
    cfg = wf.SystemConfig(n=9, omega=np.full(9, 0.1), kappa=1.0)
    with pytest.raises(SizeLimitError):
        wf.build_W_polynomial(cfg)


def test_enumeration_size_limit():
    cfg = wf.SystemConfig(n=21, omega=np.zeros(21), kappa=1.0)
    with pytest.raises(SizeLimitError):
        wf.enumerate_equilibria(cfg)


def test_unstable_below_R_one():
    rng = np.random.default_rng(4)
    count = 0
    for _ in range(50):
        n = int(rng.integers(1, 6))
        cfg = wf.SystemConfig(n=n, omega=rng.uniform(-0.4, 0.4, n), kappa=rng.uniform(0.6, 2.5))
        for rec in wf.enumerate_equilibria(cfg):
            if 0.0 < rec.R < 1.0 and rec.stability != "Indeterminate":
                assert rec.stability == "Unstable"
                count += 1
    assert count > 0


def test_prescribed_equilibrium():
    cfg = wf.SystemConfig(n=10, omega=np.full(10, 1e-3), kappa=1.0)
    rec, m = wf.construct_prescribed_equilibrium(0.5, cfg)
    assert m == 2
    assert 0.25 / 2 <= rec.R <= 1.5 * 0.5
    assert _vector_field_norm(cfg, rec) < 1e-8
    assert np.sum(rec.signature.sigma == 1) == m


def test_prescribed_equilibrium_root_on_a_grid_point():
    # with omega ~ 0 the root is rho0 = 0.8, a point of the grid on [rho0/2, 3 rho0/2]
    cfg = wf.SystemConfig(n=5, omega=np.full(5, 1e-9), kappa=1.0)
    rec, m = wf.construct_prescribed_equilibrium(0.8, cfg)
    assert m == 2
    assert rec.R == pytest.approx(0.8, abs=1e-12)
    assert abs(rec.R - np.mean(1.0 + np.cos(rec.theta))) < 1e-12


def test_prescribed_equilibrium_preconditions():
    cfg = wf.SystemConfig(n=2, omega=np.zeros(2), kappa=1.0)
    with pytest.raises(DomainError):
        wf.construct_prescribed_equilibrium(0.5, cfg)  # N < 2/rho
    big = wf.SystemConfig(n=10, omega=np.full(10, 0.5), kappa=1.0)
    with pytest.raises(DomainError):
        wf.construct_prescribed_equilibrium(0.5, big)  # frequencies too large


def test_classify_stability_matches_record():
    cfg = wf.SystemConfig(n=2, omega=np.array([0.1, -0.1]), kappa=1.5)
    for rec in wf.enumerate_equilibria(cfg):
        assert wf.classify_stability(cfg, rec) == rec.stability


def test_equilibria_json_round_trip(tmp_path):
    cfg = wf.SystemConfig(n=2, omega=np.array([0.1, 0.2]), kappa=1.2)
    records = wf.enumerate_equilibria(cfg)
    path = tmp_path / "eq.json"
    wf.equilibria_to_json(records, path)
    data = json.loads(path.read_text())
    assert len(data) == len(records)
    for item, rec in zip(data, records):
        assert item["R"] == pytest.approx(rec.R)
        assert item["stability"] == rec.stability


def test_indeterminate_record_writes_null_for_its_eigenvalue(tmp_path):
    # R = 1 lies on the boundary kappa R = max|omega|: the record keeps its nan,
    # and its JSON, which has no NaN, holds null there
    records = wf.enumerate_equilibria(wf.SystemConfig(n=3, omega=np.ones(3), kappa=1.0))
    path = tmp_path / "eq.json"
    wf.equilibria_to_json(records, path)

    def refuse(token):
        raise ValueError(f"non-JSON constant {token}")

    data = json.loads(path.read_text(), parse_constant=refuse)
    assert [item["max_eig_real"] is None for item in data] == [math.isnan(rec.max_eig_real) for rec in records]
    assert records[0].stability == "Indeterminate" and math.isnan(records[0].max_eig_real)


def test_theta_canonical_range():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        cfg = wf.SystemConfig(n=n, omega=rng.uniform(-0.3, 0.3, n), kappa=rng.uniform(0.8, 2.0))
        for rec in wf.enumerate_equilibria(cfg):
            assert np.all(rec.theta > -np.pi - 1e-12)
            assert np.all(rec.theta <= np.pi + 1e-12)


def test_signature_validation():
    with pytest.raises(DomainError):
        Signature(np.array([1, 0]))


@pytest.mark.parametrize("n,eps", [(3, 1e-6), (5, 1e-6), (7, 1e-6), (1, 1e-9), (1, 1e-10)],
                         ids=["3", "5", "7", "1-1e-9", "1-1e-10"])
def test_equilibria_appear_at_critical_coupling(n, eps):
    omega = np.array([0.3]) if n == 1 else np.random.default_rng(n).uniform(-1.0, 1.0, n)
    kc = wf.critical_coupling(omega)
    below = wf.SystemConfig(n=n, omega=omega, kappa=kc * (1 - eps))
    above = wf.SystemConfig(n=n, omega=omega, kappa=kc * (1 + eps))
    assert wf.enumerate_equilibria(below) == []
    records = wf.enumerate_equilibria(above)
    assert len(records) > 0
    if n == 1:
        # the saddle-node pair, closer together than one scan cell
        assert sorted(rec.stability for rec in records) == ["Stable", "Unstable"]


@pytest.mark.parametrize("n", range(1, 8))
def test_jacobian_index_sum_vanishes(n):
    # chi(T^N) = 0, so by Poincare-Hopf the signs of det J over all
    # equilibria sum to 0 when none is degenerate; a lost root breaks it
    checked = 0
    for seed in range(4):
        rng = np.random.default_rng([seed, n])
        for s in (0.2, 1.0):
            omega = rng.uniform(-s, s, n)
            kc = wf.critical_coupling(omega)
            for ratio in (1 + 1e-10, 1 + 1e-9, 1 + 1e-6, 1.05, 2.0):
                cfg = wf.SystemConfig(n=n, omega=omega, kappa=kc * ratio)
                records = wf.enumerate_equilibria(cfg)
                if any(rec.stability == "Indeterminate" for rec in records):
                    continue
                theta = np.array([rec.theta for rec in records])
                assert np.sum(np.sign(np.linalg.det(wf.jacobian(cfg, theta)))) == 0, (omega.tolist(), ratio)
                checked += 1
    assert checked >= 36


def _newton_zeros(cfg, rng):
    """Zeros (max|F| < 1e-11) reached by 60 damped Newton steps from 256 uniform starts."""
    theta = rng.uniform(-np.pi, np.pi, (256, cfg.n))

    def field(th):  # the sinusoidal vector field of every row at once
        return cfg.omega - cfg.kappa * np.mean(1.0 + np.cos(th), axis=-1, keepdims=True) * np.sin(th)

    for row in theta[:3]:
        np.testing.assert_allclose(field(row[None])[0], wf.vector_field(cfg, SPEC, row), rtol=0, atol=1e-12)
    with np.errstate(all="ignore"):
        for _ in range(60):
            f, jac = field(theta), wf.jacobian(cfg, theta)
            try:
                step = np.linalg.solve(jac, -f[..., None])[..., 0]
            except np.linalg.LinAlgError:
                step = np.array([np.linalg.lstsq(j, -r, rcond=None)[0] for j, r in zip(jac, f)])
            theta = theta + np.clip(step, -0.5, 0.5)
        return theta[np.max(np.abs(field(theta)), axis=-1) < 1e-11]


def _missed_zeros(cfg, zeros):
    """How many of the zeros lie farther than 1e-6 (wrapped max norm) from every enumerated theta."""
    thetas = np.array([rec.theta for rec in wf.enumerate_equilibria(cfg)]).reshape(-1, cfg.n)
    if len(thetas) == 0:
        return len(zeros)
    gap = np.abs((zeros[:, None, :] - thetas[None, :, :] + np.pi) % (2.0 * np.pi) - np.pi)
    return int(np.sum(gap.max(axis=-1).min(axis=-1) > 1e-6))


@pytest.mark.parametrize("n", range(1, 8))
def test_newton_zeros_are_enumerated(n):
    # an oracle that shares no code with the branch scan: every zero damped
    # Newton reaches from random starts must be an enumerated equilibrium
    found, missed = 0, []
    for s in (0.2, 1.0):
        rng = np.random.default_rng([n, int(10 * s)])
        omega = rng.uniform(-s, s, n)
        kc = wf.critical_coupling(omega)
        for ratio in (1 + 1e-10, 1 + 1e-9, 1 + 1e-6, 1.05, 2.0):
            cfg = wf.SystemConfig(n=n, omega=omega, kappa=kc * ratio)
            zeros = _newton_zeros(cfg, rng)
            found += len(zeros)
            if _missed_zeros(cfg, zeros):
                missed.append((s, ratio))
    assert found >= 20
    assert missed == []


@pytest.mark.parametrize("omega,kappa,count", [
    ((0.97497497494995, 0.97497497494995), 1.0, 4),  # f = 0 exactly on a grid point, R = 1
    ((0.5, 0.5), 0.5, 2),  # R = 1 is the branch point of all four signatures, one theta
])
def test_enumeration_root_rules(omega, kappa, count):
    cfg = wf.SystemConfig(n=2, omega=np.array(omega), kappa=kappa)
    records = wf.enumerate_equilibria(cfg)
    assert len(records) == count
    for rec in records:
        assert _vector_field_norm(cfg, rec) <= 1e-9
    if omega == (0.5, 0.5):  # dedup keeps the first one found
        (at_one,) = [rec for rec in records if rec.R == 1.0]
        assert at_one.theta.tolist() == [np.pi / 2, np.pi / 2]
        assert at_one.signature.sigma.tolist() == [1, 1]


def _per_signature_equilibria(cfg):
    """(R, signature, theta) from solve_R_equation one signature at a time, deduplicated
    by comparing each theta with every kept one (first found wins)."""
    kept = []
    for bits in range(2**cfg.n):
        sigma = np.where((bits >> np.arange(cfg.n)) & 1 == 1, -1, 1)
        for r in solve_R_equation(cfg, Signature(sigma)):
            theta = equilibria._equilibrium_theta(cfg, sigma, r)
            if all(np.max(np.abs(wf.wrap_to_pi(theta - prev))) >= equilibria.DEDUP_TOL for _, _, prev in kept):
                kept.append((r, sigma.tolist(), theta))
    return kept


@settings(max_examples=30, deadline=None)
@given(
    omega=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6),
    kappa=st.floats(0.2, 3.0),
    block=st.sampled_from([1, 3, 64]),
)
# roots at the branch point, where several signatures give one theta
@example(omega=[1.0], kappa=1.0, block=1)
@example(omega=[0.5, -0.5, 0.2, -0.1], kappa=0.339195131965317, block=3)
def test_enumeration_matches_per_signature_solver(omega, kappa, block):
    omega = np.array(omega)
    assume(np.max(np.abs(omega)) > 1e-3)
    cfg = wf.SystemConfig(n=omega.size, omega=omega, kappa=kappa)
    with mock.patch.object(equilibria, "BLOCK_SIGNATURES", block):
        records = wf.enumerate_equilibria(cfg)
        roots = wf.build_W_polynomial(cfg).roots_in(0.0, 2.1)
    reference = _per_signature_equilibria(cfg)
    assert [(rec.R, rec.signature.sigma.tolist()) for rec in records] == [(r, s) for r, s, _ in reference]
    for rec, (_, _, theta) in zip(records, reference):
        assert np.array_equal(rec.theta, theta)
    for rec in records:
        assert np.min(np.abs(roots - rec.R)) < 1e-6


def test_tangent_close_calls_logged_only_at_debug(caplog):
    omega = np.random.default_rng(0).uniform(-1.0, 1.0, 2)
    cfg = wf.SystemConfig(n=2, omega=omega, kappa=wf.critical_coupling(omega))
    with caplog.at_level(logging.DEBUG, logger="winfree.equilibria"):
        wf.enumerate_equilibria(cfg)
    assert any(m.startswith("tangent cell") for m in caplog.messages)
    src = os.path.dirname(os.path.dirname(wf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import winfree as wf; "
            f"wf.enumerate_equilibria(wf.SystemConfig(n=2, omega={omega.tolist()!r}, kappa={cfg.kappa!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert (out.stdout, out.stderr) == ("", "")


def _sturm_root_count(coeffs, lo, hi):
    """Distinct real roots in (lo, hi) of the polynomial with ascending rational coefficients.

    Sturm's theorem in exact arithmetic: p, p', then the negated remainders,
    each divided by the magnitude of its leading coefficient (signs are kept).
    """
    def trimmed(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def negated_remainder(a, b):
        a = list(a)
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            for i, c in enumerate(b, len(a) - len(b)):
                a[i] -= q * c
            trimmed(a)
        return [-c / abs(a[-1]) for c in a]

    seq = [trimmed(list(coeffs))]
    seq.append(trimmed([i * c for i, c in enumerate(seq[0])][1:]))
    while rem := negated_remainder(seq[-2], seq[-1]):
        seq.append(rem)

    def sign_changes(x):
        signs = [v > 0 for v in (sum(c * x**i for i, c in enumerate(p)) for p in seq) if v != 0]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return sign_changes(lo) - sign_changes(hi)


@pytest.mark.parametrize("omega,kappa", [
    ((0.25,), 1.0),
    ((0.5, -0.25), 1.0),
    ((0.5, -0.25), 0.34375),
    ((0.375, -0.125, 0.25), 1.5),
    ((0.375, -0.125, 0.25), 0.5),
    ((0.25, -0.125, 0.5, 0.0625), 2.0),  # float-rounded coefficients give 12 roots here
    ((0.25, -0.125, 0.5, 0.0625), 0.3125),
    ((0.75, -0.5, 0.25, 0.125), 1.0),
    # equal frequencies: signatures that swap their signs share roots, which
    # W has as repeated roots and Sturm counts once
    ((0.25, 0.25, -0.25, 0.125), 1.0),
    ((0.5, -0.5, 0.5), 1.0),
    ((0.375, 0.375, -0.375, 0.375), 0.75),
    ((0.25, -0.25), 0.625),
])
def test_w_polynomial_sturm_count_matches_roots_in(omega, kappa):
    # dyadic omega and kappa: the exact build's rational coefficients are those of this system
    cfg = wf.SystemConfig(n=len(omega), omega=np.array(omega), kappa=kappa)
    poly = wf.build_W_polynomial(cfg, exact=True)
    assert all(isinstance(c, Fraction) for c in poly.coeffs)
    lo, hi = Fraction(max(map(abs, omega))) / Fraction(kappa), Fraction(21, 10)
    assert all(sum(c * x**i for i, c in enumerate(poly.coeffs)) != 0 for x in (lo, hi))
    assert _sturm_root_count(poly.coeffs, lo, hi) == len(poly.roots_in(0.0, 2.1))


def test_w_roots_of_two_signatures_3e_9_apart_stay_two():
    # the N = 8 system of the equilibria benchmark at seed 2868: two signatures
    # have roots 3.2e-9 apart, far more than the 2e-12 the solver can blur
    rng = np.random.default_rng([2868, 3])
    for n in (6, 6, 7, 7, 8):
        omega = rng.uniform(-0.2, 0.2, n)
    cfg = wf.SystemConfig(n=8, omega=omega, kappa=1.0)
    roots = wf.build_W_polynomial(cfg).roots_in(0.0, 2.1)
    records = wf.enumerate_equilibria(cfg)
    assert len(roots) == len(records) == 256
    gap = np.diff(roots)
    assert 3e-9 < gap.min() < 3.5e-9 and roots[np.argmin(gap)] == pytest.approx(1.0021370628, abs=1e-10)
    assert np.max(np.abs(np.sort([rec.R for rec in records]) - roots)) < 1e-10


def test_w_polynomial_json_writes_float_coefficients(tmp_path):
    cfg = wf.SystemConfig(n=2, omega=np.array([0.5, -0.25]), kappa=1.0)
    for exact in (False, True):
        poly = wf.build_W_polynomial(cfg, exact=exact)
        path = tmp_path / f"w_{exact}.json"
        poly.to_json(path)
        assert json.loads(path.read_text()) == {"degree": 8, "coeffs": [float(c) for c in poly.coeffs]}


@pytest.mark.parametrize("omega,kappa", [([1e-170, 0.0], 1.0), ([1e-100, 0.0], 1e80)])
def test_underflowing_frequencies_take_the_zero_frequency_path(omega, kappa):
    # (omega_j/kappa)^2 underflows to 0 for every j
    cfg = wf.SystemConfig(n=2, omega=np.array(omega), kappa=kappa)
    zero = wf.SystemConfig(n=2, omega=np.zeros(2), kappa=kappa)
    with np.errstate(all="raise"):
        got = [json.dumps(r.to_json_dict()) for r in wf.enumerate_equilibria(cfg)]
        assert got == [json.dumps(r.to_json_dict()) for r in wf.enumerate_equilibria(zero)]
        assert len(got) == 4
        with pytest.raises(DegenerateFrequenciesError):
            wf.build_W_polynomial(cfg)
        with pytest.raises(DegenerateFrequenciesError):
            solve_R_equation(cfg, Signature(np.array([1, -1])))


def test_critical_coupling_tiny_frequencies_scale_exactly():
    rng = np.random.default_rng(6)
    for _ in range(20):
        omega = rng.uniform(-1.0, 1.0, int(rng.integers(1, 9)))
        tiny = wf.critical_coupling(2.0**-560 * omega)
        assert math.isfinite(tiny) and tiny > 0.0
        assert tiny == 2.0**-560 * wf.critical_coupling(omega)


@pytest.mark.parametrize("omega,kappa,shift", [
    ([1e-170, 5e-171], 1e-170, 564),  # kappa^2 underflows
    ([2.0**-300, 1.5 * 2.0**-301], 2.0**220, 300),  # kappa^2 of the rescale overflows
])
def test_extreme_scales_give_the_records_of_their_rescale(omega, kappa, shift):
    # scaling omega and kappa by 2^shift leaves every omega_j/(kappa r) exact,
    # so the branch solve must return the same R and theta to the last bit;
    # stability and divergence come from each system's own Jacobian
    cfg = wf.SystemConfig(n=2, omega=np.array(omega), kappa=kappa)
    big = wf.SystemConfig(n=2, omega=np.ldexp(omega, shift), kappa=math.ldexp(kappa, shift))
    with np.errstate(all="raise", under="ignore"):  # numpy's default ignores underflow too
        got, want = wf.enumerate_equilibria(cfg), wf.enumerate_equilibria(big)
        for sigma in equilibria._signatures(2):
            assert solve_R_equation(cfg, Signature(sigma)) == solve_R_equation(big, Signature(sigma))
    assert len(got) == len(want) > 0
    for a, b in zip(got, want):
        assert (a.R, a.theta.tobytes()) == (b.R, b.theta.tobytes())
        assert a.signature.sigma.tolist() == b.signature.sigma.tolist()


def _one_at_a_time_records(cfg):
    """Records built one at a time, as before stacking: theta, then the 1-D Jacobian,
    its largest eigvalsh eigenvalue and the 1-D divergence per record; dedup against every kept theta."""
    omega_max = float(np.max(np.abs(cfg.omega)))
    bipolar = not np.any((cfg.omega / cfg.kappa) ** 2)
    out, kept = [], []
    for bits in range(2**cfg.n):
        sigma = np.where((bits >> np.arange(cfg.n)) & 1 == 1, -1, 1)
        if bipolar:
            theta = np.where(sigma < 0, np.pi, 0.0)
            roots = [float(np.mean(1.0 + np.cos(theta)))]
        else:
            roots = solve_R_equation(cfg, Signature(sigma))
        for r in roots:
            if not bipolar:
                base = np.arcsin(np.clip(cfg.omega / (cfg.kappa * r), -1.0, 1.0))
                theta = np.pi - np.mod(-np.where(sigma > 0, base, np.pi - base) + np.pi, 2.0 * np.pi)
                if any(np.max(np.abs(wf.wrap_to_pi(theta - prev))) < equilibria.DEDUP_TOL for prev in kept):
                    continue
                kept.append(theta)
            if abs(abs(cfg.kappa) * r - omega_max) < 1e-12:
                label, max_eig = "Indeterminate", float("nan")
            else:
                max_eig = float(np.linalg.eigvalsh(wf.jacobian(cfg, theta))[-1])
                label = "Unstable" if max_eig > 1e-8 else "Stable" if max_eig < -1e-8 else "Indeterminate"
            out.append((float(r).hex(), theta.tobytes(), sigma.tolist(),
                        wf.divergence(cfg, SPEC, theta).hex(), label, max_eig.hex()))
    return out


@settings(max_examples=40, deadline=None)
@given(
    omega=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6),
    kappa=st.floats(0.2, 3.0),
    near=st.sampled_from([None, -1e-9, 0.0, 1e-9, 1e-6]),
    zero=st.booleans(),
    chunk=st.sampled_from([1, 3, equilibria.BLOCK_SIGNATURES]),
)
# a root on the boundary |kappa| R = max|omega| (Indeterminate, nan), and omega = 0
@example(omega=[1.0], kappa=1.0, near=None, zero=False, chunk=1)
@example(omega=[0.5, -0.5, 0.2, -0.1], kappa=0.339195131965317, near=None, zero=False, chunk=3)
@example(omega=[0.3, 0.1, -0.2], kappa=-1.5, near=None, zero=True, chunk=3)
def test_stacked_records_equal_one_at_a_time_records(omega, kappa, near, zero, chunk):
    omega = np.zeros(len(omega)) if zero else np.array(omega)
    assume(zero or np.max(np.abs(omega)) > 1e-3)
    if near is not None and not zero:
        kappa = wf.critical_coupling(omega) * (1.0 + near)
    cfg = wf.SystemConfig(n=omega.size, omega=omega, kappa=kappa)
    with mock.patch.object(equilibria, "BLOCK_SIGNATURES", chunk):
        records = wf.enumerate_equilibria(cfg)
    got = []
    for rec in records:
        assert type(rec.R) is type(rec.divergence) is type(rec.max_eig_real) is float
        got.append((rec.R.hex(), rec.theta.tobytes(), rec.signature.sigma.tolist(), rec.divergence.hex(),
                    rec.stability, rec.max_eig_real.hex()))
        assert wf.classify_stability(cfg, rec) == rec.stability
    assert got == _one_at_a_time_records(cfg)


_OMEGA7 = np.random.default_rng(1).uniform(-1.0, 1.0, 7)


@pytest.mark.parametrize("block", [None, 3])
@pytest.mark.parametrize("omega, kappa, boundary", [
    (_OMEGA7, 2.0 * wf.critical_coupling(_OMEGA7), 0),  # 102 records; some 3 signatures in a row have 4 roots
    (0.3 * np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0]), 0.3, 1),  # 65 records, R = 1 on the boundary
], ids=["two_roots", "boundary"])
def test_jacobian_stacks_stay_bounded(monkeypatch, omega, kappa, boundary, block):
    # the whole enumeration is one stack of rows; _stability alone walks it
    # BLOCK_SIGNATURES rows at a time, so no (rows, N, N) array grows with 2^N
    if block is not None:
        monkeypatch.setattr(equilibria, "BLOCK_SIGNATURES", block)
    stacks, jacobian = [], model.jacobian

    def recorded(config, state, *args, **kwargs):
        stacks.append(np.array(state))
        return jacobian(config, state, *args, **kwargs)

    monkeypatch.setattr(model, "jacobian", recorded)
    records = wf.enumerate_equilibria(wf.SystemConfig(n=7, omega=omega, kappa=kappa))
    assert all(0 < len(stack) <= equilibria.BLOCK_SIGNATURES for stack in stacks)
    inner = [rec.theta for rec in records if not math.isnan(rec.max_eig_real)]
    assert len(inner) == len(records) - boundary
    assert np.array_equal(np.concatenate(stacks), np.array(inner))  # each inner record once, in order


def _scalar_critical_coupling(omega):
    """kappa_c by one h(u) evaluation per bisection step; also the number of steps taken."""
    omega = np.asarray(omega, dtype=float)
    omega_inf = float(np.max(np.abs(omega)))
    n = omega.size
    omega2 = (omega / omega_inf) ** 2

    def h(u):
        s = np.sqrt(np.clip(1.0 - omega2 / u**2, 1e-300, None))
        return -1.0 - 2.0 / n * np.sum(s) + 1.0 / n * np.sum(1.0 / s)

    a, b, steps = 1.0 + 1e-12, 2.0 / math.sqrt(3.0), 0
    if h(b) >= 0.0:
        u_star = b
    else:
        for steps in range(1, 201):
            mid = 0.5 * (a + b)
            if h(mid) > 0.0:
                a = mid
            else:
                b = mid
            if (b - a) <= 1e-12 * b:
                break
        u_star = 0.5 * (a + b)
    s = np.sqrt(np.clip(1.0 - omega2 / u_star**2, 0.0, None))
    return float(n * u_star / (n + np.sum(s))) * omega_inf, steps


@pytest.mark.parametrize("n", list(range(1, 17)) + [105, 200, 800])
def test_critical_coupling_equals_scalar_bisection(monkeypatch, n):
    # a round evaluates the midpoints on the path toward the Newton prediction
    # as one array, and at most 2 rounds follow the h(b) check;
    # n = 105 equal frequencies has h(b) = 0, so no step is taken
    batches, walk = [], equilibria._bisect_walk

    def counted_walk(above, *args, **kwargs):
        def counted(points):
            batches.append(len(points))
            return above(points)

        return walk(counted, *args, **kwargs)

    monkeypatch.setattr(equilibria, "_bisect_walk", counted_walk)
    rng = np.random.default_rng(n)
    vectors = [rng.uniform(-2.0, 2.0, n) for _ in range(4)] + [np.full(n, 0.7)]
    for omega in vectors:
        batches.clear()
        want, steps = _scalar_critical_coupling(omega)
        assert wf.critical_coupling(omega) == want
        assert len(batches) <= 2
    if n == 105:
        assert _scalar_critical_coupling(vectors[-1])[1] == 0


def _workload_vectors(count, seed=0):
    """Frequency vectors as the equilibria benchmark draws them: N in 1..16, omega ~ U(-2, 2)."""
    rng = np.random.default_rng(seed)
    return [rng.uniform(-2.0, 2.0, int(rng.integers(1, 17))) for _ in range(count)]


@pytest.mark.parametrize("omega", [
    [1.0, math.sqrt(1.0 - 1e-12)],  # c_2 = 1 - 1e-12: the z/s_2 term bends within 1e-6 of z = 0
    [1.0, -math.sqrt(1.0 - 1e-12), 0.3, -0.05],
    [-1.0, 1.0 - 1e-12, 1e-3, 0.5, 0.5, 0.999],
    [0.7],  # N = 1: the root is b within rounding, so h(b) is read on either side of 0
    [-3.0],
    [2.0**-560 * 0.3, -2.0**-560],
    [2.0**-560, 2.0**-560 * 0.999999, 2.0**-600],
    list(np.linspace(-1.0, 1.0, 401)),
])
def test_critical_coupling_equals_scalar_bisection_on_adversarial_vectors(omega):
    assert wf.critical_coupling(omega) == _scalar_critical_coupling(omega)[0]


def test_critical_coupling_equals_scalar_bisection_on_the_benchmark_distribution():
    for omega in _workload_vectors(2000, seed=29):
        assert wf.critical_coupling(omega) == _scalar_critical_coupling(omega)[0], omega.tolist()


def test_critical_coupling_newton_step_budget(caplog):
    # deterministic counts, from the DEBUG line: at most 8 Newton steps and
    # 2 path batches per vector over the benchmark's distribution, and one
    # batch (no mismatched verdict) for nearly all of them
    vectors = _workload_vectors(2000, seed=30)
    with caplog.at_level(logging.DEBUG, logger="winfree.equilibria"):
        for omega in vectors:
            wf.critical_coupling(omega)
    lines = [m for m in caplog.messages if m.startswith("critical_coupling n=")]
    assert len(lines) == len(vectors)
    counts = np.array([[int(w) for w in re.findall(r"(\d+) (?:Newton|path|mismatch)", m)] for m in lines])
    steps, batches, mismatches = counts.T
    assert steps.max() <= 8 and batches.max() <= 2, (steps.max(), batches.max())
    assert np.sum(batches == 1) >= 0.99 * len(vectors) and mismatches.sum() <= 0.01 * len(vectors)


def test_enumeration_size_cut():
    cfg = wf.SystemConfig(n=19, omega=np.zeros(19), kappa=1.0)
    with pytest.raises(SizeLimitError, match="N <= 18"):
        wf.enumerate_equilibria(cfg)


def test_enumeration_phase_times_logged_only_at_debug(caplog):
    cfg = wf.SystemConfig(n=3, omega=np.array([0.1, -0.2, 0.15]), kappa=1.0)
    with caplog.at_level(logging.DEBUG, logger="winfree.equilibria"):
        records = wf.enumerate_equilibria(cfg)
    lines = [m for m in caplog.messages if m.startswith("enumerate N=3:")]
    assert len(lines) == 1
    assert f"8 signatures, 8 roots, {len(records)} records;" in lines[0]
    for phase in ("scan", "dedup", "records"):
        assert f"{phase} " in lines[0]
    # that nothing prints by default is checked by the subprocess run in
    # test_tangent_close_calls_logged_only_at_debug, which logs this line too


def _reference_ends(omega2, kappa2, sigma, r):
    """(f, G+, G-, G+', G-') of one signature row at one point r, from that row's own terms."""
    x = omega2 / (kappa2 * (r * r))
    g = np.sqrt(np.clip(1.0 - x, 0.0, None))
    with np.errstate(divide="ignore"):
        slope = x / (r * g)
    plus = sigma > 0
    f = equilibria._branch_values(omega2, kappa2, sigma, np.array(r))
    return np.array([f, np.sum(g, where=plus), np.sum(g, where=~plus), np.sum(slope, where=plus),
                     np.sum(slope, where=~plus)])


def _reference_branch_roots(omega2, kappa2, sigmas, lo, hi):
    """The isolation's rules one signature row and one cell at a time, depth first; also its counts.

    Every end value comes from _reference_ends, so no matrix product and no
    block is involved; each row's brackets are solved by their own
    _newton_brackets call.  The roots come as _branch_roots' (row, r)
    columns, and the counts are those _branch_roots logs.
    """
    n = omega2.size
    grid = np.linspace(lo, hi, equilibria.COARSE_CELLS + 1)
    counts = dict.fromkeys(equilibria._COUNTS, 0)
    rows, roots = [], []
    for row, sigma in enumerate(np.asarray(sigmas, dtype=float)):
        ends = [_reference_ends(omega2, kappa2, sigma, r) for r in grid]
        at_lo = abs(ends[0][0]) < equilibria.ROOT_TOL
        found = [float(grid[0])] if at_lo else []
        brackets = []
        cells = [(1, grid[k], grid[k + 1], ends[k], ends[k + 1]) for k in range(equilibria.COARSE_CELLS)]
        while cells:
            level, a, b, left, right = cells.pop()
            counts["levels"] = max(counts["levels"], level)
            counts["cells"] += 1
            bounds = equilibria._cell_bounds(n, np.array([a]), np.array([b]), left[:, None], right[:, None])
            lower, upper, slope_lower, slope_upper = (float(v[0]) for v in bounds)
            allowance_a, allowance_b = (float(equilibria._allowance(np.array(r))) for r in (a, b))
            if lower > allowance_b or upper < -allowance_b:
                continue
            sign_a = 0.0 if abs(left[0]) <= allowance_a or (a == lo and at_lo) else np.sign(left[0])
            sign_b = 0.0 if abs(right[0]) <= allowance_b else np.sign(right[0])
            if slope_lower > 0.0 or slope_upper < 0.0:
                if sign_a * sign_b < 0.0:
                    brackets.append((a, b, left[0]))
                    continue
                if not (sign_a != 0.0 and sign_b == 0.0):
                    continue
            if b - a >= equilibria.MIN_WIDTH:
                mid = 0.5 * (a + b)
                at_mid = _reference_ends(omega2, kappa2, sigma, mid)
                cells += [(level + 1, a, mid, left, at_mid), (level + 1, mid, b, at_mid, right)]
            elif sign_a != 0.0:
                counts["tangent"] += 1
                found.append(a if abs(left[0]) <= abs(right[0]) else b)
        if brackets:
            a, b, fa = map(list, zip(*brackets))
            solved, steps = equilibria._newton_brackets(omega2, kappa2, np.tile(sigma, (len(a), 1)), a, b, fa)
            found += solved.tolist()
            counts["brackets"] += len(a)
            counts["steps"] += steps
        rows += [row] * len(found)
        roots += found
    return np.array(rows, dtype=int), np.array(roots, dtype=float), counts


def _grid_point_root_system():
    """N=5 system whose signature (-1, 1, 1, 1, 1) has f within 1e-14 of 0 at coarse grid point 11.

    omega = w * c with w bisected so that f(grid[11]) changes sign; the grid
    starts at max|omega| = w, so it moves with w.
    """
    c = np.array([1.0, -0.9, 0.7, -0.4, 0.2])
    sigma = np.array([-1.0, 1.0, 1.0, 1.0, 1.0])

    def f_at_grid_point(w):
        cfg = wf.SystemConfig(n=5, omega=w * c, kappa=1.0)
        grid = np.linspace(cfg.omega_max, equilibria.R_UPPER, equilibria.COARSE_CELLS + 1)
        return equilibria._branch_values(*equilibria._scaled_squares(cfg), sigma, grid[11:12])[0]

    a, b = 0.65, 0.7  # f > 0 at a, f < 0 at b
    while b - a > 1e-15:
        w = 0.5 * (a + b)
        a, b = (w, b) if f_at_grid_point(w) > 0 else (a, w)
    assert abs(f_at_grid_point(b)) < 1e-14
    return wf.SystemConfig(n=5, omega=b * c, kappa=1.0)


_BOUNDARY7 = wf.SystemConfig(n=7, omega=0.3 * np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0]), kappa=0.3)


def _oracle_systems():
    for n in (1, 2, 5, 9):
        omega = np.random.default_rng([n, 20]).uniform(-1.0, 1.0, n)
        kc = wf.critical_coupling(omega)
        for kappa in (kc * (1 + 1e-9), 1.3 * kc, -2.0 * kc):
            yield wf.SystemConfig(n=n, omega=omega, kappa=kappa)
    yield _grid_point_root_system()
    yield _BOUNDARY7


def _record_bits(records):
    return [(rec.R.hex(), rec.theta.tobytes(), rec.signature.sigma.tolist(), rec.divergence.hex(), rec.stability,
             rec.max_eig_real.hex()) for rec in records]


@pytest.mark.parametrize("cfg", list(_oracle_systems()), ids=lambda cfg: f"N={cfg.n},kappa={cfg.kappa:.6g}")
def test_split_scan_matches_a_direct_scan(cfg):
    # the matrix products give f, G+, G- and their slopes at each coarse grid
    # point to within 1e-14 of a direct evaluation (an infinite slope at the
    # branch point exactly); and the batched isolation, with one Newton
    # solve over every block, gives the records of a row-by-row isolation
    omega2, kappa2 = equilibria._scaled_squares(cfg)
    grid = np.linspace(cfg.omega_max / abs(cfg.kappa), equilibria.R_UPPER, equilibria.COARSE_CELLS + 1)
    sigmas = equilibria._signatures(cfg.n).astype(float)
    split = equilibria._grid_ends(omega2, kappa2, sigmas, grid)
    for k, sigma in enumerate(sigmas):
        direct = np.array([_reference_ends(omega2, kappa2, sigma, r) for r in grid]).T
        assert np.array_equal(np.isinf(split[:, k]), np.isinf(direct))
        finite = np.isfinite(direct)
        assert np.max(np.abs(split[:, k][finite] - direct[finite]) / np.maximum(1.0, np.abs(direct[finite]))) <= 1e-14
    records = wf.enumerate_equilibria(cfg)
    with mock.patch.object(equilibria, "_branch_roots", _reference_branch_roots):
        reference = wf.enumerate_equilibria(cfg)
    assert len(reference) > 0
    assert _record_bits(records) == _record_bits(reference)


def test_records_do_not_depend_on_the_blas_thread_count():
    # the coarse grid's sums are BLAS matrix products: a process with every
    # BLAS library held to one thread gives the records and W roots of this
    # one, bit for bit, next to a fold (kappa within 1e-6 of kappa_c) too
    systems = []
    for n in (7, 8, 9):
        omega = np.random.default_rng([n, 34]).uniform(-1.0, 1.0, n)
        kc = wf.critical_coupling(omega)
        systems += [(omega.tolist(), kappa) for kappa in (kc * (1 + 1e-7), 1.5 * kc, -3.0 * kc)]
    configs = [wf.SystemConfig(n=len(omega), omega=np.array(omega), kappa=kappa) for omega, kappa in systems]
    want = [[[x.hex() if isinstance(x, bytes) else x for x in bits]
             for bits in _record_bits(wf.enumerate_equilibria(cfg))] for cfg in configs]
    code = ("import json, numpy as np, winfree as wf\n"
            f"configs = [wf.SystemConfig(n=len(w), omega=np.array(w), kappa=k) for w, k in {systems!r}]\n"
            "print(json.dumps([[[r.R.hex(), r.theta.tobytes().hex(), r.signature.sigma.tolist(), r.divergence.hex(),"
            " r.stability, r.max_eig_real.hex()] for r in wf.enumerate_equilibria(cfg)] for cfg in configs]))\n"
            "print(wf.build_W_polynomial(configs[3]).roots_in(0.0, 2.1).tobytes().hex())\n")
    src = os.path.dirname(os.path.dirname(wf.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
               **dict.fromkeys(["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"], "1"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    records, w_roots = out.stdout.splitlines()
    assert all(want)
    assert json.loads(records) == want
    assert w_roots == wf.build_W_polynomial(configs[3]).roots_in(0.0, 2.1).tobytes().hex()


@pytest.mark.parametrize("ratio, verdict", [(1.0, "accepted"), (1 + 1e-9, "split")])
def test_enumeration_logs_the_branch_solver_counts(caplog, monkeypatch, ratio, verdict):
    # at kappa_c one tangent cell is accepted as the double root; just above
    # it the pair of roots is split into two brackets
    omega = np.random.default_rng(2).uniform(-1.0, 1.0, 5)
    cfg = wf.SystemConfig(n=5, omega=omega, kappa=wf.critical_coupling(omega) * ratio)
    lo = cfg.omega_max / abs(cfg.kappa)
    *_, want = _reference_branch_roots(*equilibria._scaled_squares(cfg), equilibria._signatures(5), lo,
                                       equilibria.R_UPPER)
    calls, solve = [], equilibria._newton_brackets

    def spy(omega2, kappa2, sigma, a, b, fa):
        roots, steps = solve(omega2, kappa2, sigma, a, b, fa)
        calls.append((len(roots), steps))
        return roots, steps

    monkeypatch.setattr(equilibria, "_newton_brackets", spy)
    with caplog.at_level(logging.DEBUG, logger="winfree.equilibria"):
        wf.enumerate_equilibria(cfg)
    (brackets, steps), = calls  # one Newton solve per enumeration
    assert (brackets, steps) == (want["brackets"], want["steps"])
    assert (steps > 0) == (brackets > 0)
    tangent = len([m for m in caplog.messages if m.startswith("tangent cell")])
    assert tangent == want["tangent"] == (1 if verdict == "accepted" else 0)
    assert verdict == "accepted" or brackets == 2
    assert want["cells"] >= 32 * equilibria.COARSE_CELLS and want["levels"] > 1
    (line,) = [m for m in caplog.messages if m.startswith("enumerate N=5:")]
    assert (f" {want['levels']} levels, {want['cells']} cells tested, {tangent} tangent cells, "
            f"{brackets} brackets, {steps} Newton steps;") in line


def _plus_slope(cfg, r):
    """f'(r) of the all-plus branch function f(r) = 1 + mean sqrt(1 - x_j) - r, x_j = (omega_j/(kappa r))^2."""
    x = (cfg.omega / (cfg.kappa * r)) ** 2
    return float(np.mean(x / np.sqrt(1.0 - x)) / r - 1.0)


def _plus_residual(cfg, r):
    theta = equilibria._equilibrium_theta(cfg, np.ones(cfg.n, dtype=int), r)
    return float(np.max(np.abs(wf.vector_field(cfg, SPEC, theta))))


def _reference_bisect(omega2, kappa2, sigma, a, b, fa):
    """Bisection of each bracket [a_k, b_k], f(a_k) = fa_k, to |f(mid)| < ROOT_TOL; and the halvings made.

    The branch solver's bisection before its Newton steps: all brackets are
    halved together, each independently of the others; bracket k stops once
    |f(mid)| < ROOT_TOL or b_k - a_k < 1e-16, after at most 200 halvings,
    and its root is the midpoint.
    """
    a, b, fa = np.array(a, dtype=float), np.array(b, dtype=float), np.array(fa, dtype=float)
    live = np.arange(a.size)
    halvings = 0
    for _ in range(200):
        if live.size == 0:
            break
        mid = 0.5 * (a[live] + b[live])
        fm = equilibria._branch_values(omega2, kappa2, sigma[live], mid)
        go = ~((np.abs(fm) < equilibria.ROOT_TOL) | (b[live] - a[live] < 1e-16))
        live, mid, fm = live[go], mid[go], fm[go]
        halvings += live.size
        left = fa[live] * fm < 0
        b[live[left]] = mid[left]
        a[live[~left]] = mid[~left]
        fa[live[~left]] = fm[~left]
    return 0.5 * (a + b), halvings


def _solved_brackets(monkeypatch):
    """Records (omega2, kappa2, sigma, a, b, fa, roots, steps) of every _newton_brackets call from here on."""
    calls, solve = [], equilibria._newton_brackets

    def spy(omega2, kappa2, sigma, a, b, fa):
        roots, steps = solve(omega2, kappa2, sigma, a, b, fa)
        calls.append((omega2, kappa2, np.array(sigma), np.array(a), np.array(b), np.array(fa), roots, steps))
        return roots, steps

    monkeypatch.setattr(equilibria, "_newton_brackets", spy)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3, 5, 20, 50, 200])
def test_stable_root_is_the_largest_all_plus_root_of_the_grid_solver(monkeypatch, n):
    # Newton on the concave all-plus branch against the branch solver: the
    # solver's Newton steps stop at |f| < ROOT_TOL, so the two largest roots
    # lie within 2 ROOT_TOL / |f'(R*)| of each other; and both roots'
    # equilibria are at least as accurate as the root that bisection of the
    # same certified bracket to |f| < ROOT_TOL gives; below kappa_c there is no root
    plus = Signature(np.ones(n, dtype=int))
    calls = _solved_brackets(monkeypatch)
    for seed in range(12):
        omega = np.random.default_rng([seed, n]).uniform(-1.0, 1.0, n)
        kc = wf.critical_coupling(omega)
        for ratio in (1.001, 1.01, 1.05, 1.5, 3.0, 10.0):
            cfg = wf.SystemConfig(n=n, omega=omega, kappa=ratio * kc)
            calls.clear()
            grid = solve_R_equation(cfg, plus)[-1]
            (omega2, kappa2, sigma, a, b, fa, roots, _), = calls
            k = int(np.flatnonzero(roots == grid)[0])
            bisected = _reference_bisect(omega2, kappa2, sigma[k:k + 1], a[k:k + 1], b[k:k + 1], fa[k:k + 1])[0][0]
            root = equilibria._stable_root(cfg)
            assert root is not None, (n, seed, ratio)
            r = root[0]
            assert abs(r - grid) <= 2.0 * equilibria.ROOT_TOL / abs(_plus_slope(cfg, grid)), (n, seed, ratio)
            assert _plus_residual(cfg, r) <= _plus_residual(cfg, bisected), (n, seed, ratio)
            assert _plus_residual(cfg, grid) <= _plus_residual(cfg, bisected), (n, seed, ratio)
        for ratio in (0.999, 0.99999):
            cfg = wf.SystemConfig(n=n, omega=omega, kappa=ratio * kc)
            assert equilibria._stable_root(cfg) is None, (n, seed, ratio)


@pytest.mark.parametrize("n", [1, 5, 50])
@pytest.mark.parametrize("kappa", [1e-170, 1.0, 2.0**520], ids=["1e-170", "1", "2^520"])
def test_stable_root_where_the_frequencies_vanish(n, kappa):
    # at omega = 0, and where omega_j^2 underflows, f(r) = 2 - r to rounding:
    # Newton from r = 2 stops there at once, so the contraction ball needs no
    # omega = 0 case of its own
    for omega in (np.zeros(n), np.resize([1e-200, 0.0, -1e-200], n)):
        root = equilibria._stable_root(wf.SystemConfig(n=n, omega=omega, kappa=kappa))
        assert root == (2.0, 0, -1.0), (omega, root)


@pytest.mark.parametrize("eps", [1e-9, 1e-6])
def test_stable_root_next_to_the_fold(eps):
    # just above kappa_c the all-plus branch rises above 0 only between two
    # roots about 4e-5 apart (test_solve_R_equation_finds_both_roots_next_to_the_fold);
    # Newton from r = 2 stops on the larger root, with f(R*) = 0 to rounding
    omega = np.random.default_rng([0, 200]).uniform(-1.0, 1.0, 200)
    cfg = wf.SystemConfig(n=200, omega=omega, kappa=(1.0 + eps) * wf.critical_coupling(omega))
    r, _, slope = equilibria._stable_root(cfg)
    omega2, kappa2 = equilibria._scaled_squares(cfg)

    def f(r):
        return equilibria._branch_values(omega2, kappa2, np.ones(200), np.asarray(r, dtype=float))

    assert abs(f(r)) <= 4.0 * np.finfo(float).eps
    assert f(cfg.omega_max / cfg.kappa) < 0.0 < np.max(f(np.linspace(r - 1e-4, r, 2001)))  # a smaller root too
    assert f(r + 1e-9) < 0.0
    assert slope == pytest.approx(_plus_slope(cfg, r), rel=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_solve_R_equation_finds_both_roots_next_to_the_fold(seed):
    # at kappa_c (1 + 1e-6) the two all-plus roots are about 4e-5 apart and f
    # rises about 2e-6 above 0 between them: the isolation brackets both, and
    # the larger is the root Newton on the concave branch stops on
    omega = np.random.default_rng([seed, 200]).uniform(-1.0, 1.0, 200)
    cfg = wf.SystemConfig(n=200, omega=omega, kappa=(1.0 + 1e-6) * wf.critical_coupling(omega))
    roots = solve_R_equation(cfg, Signature(np.ones(200, dtype=int)))
    assert len(roots) == 2, roots
    r = equilibria._stable_root(cfg)[0]
    assert abs(roots[-1] - r) <= 2.0 * equilibria.ROOT_TOL / abs(_plus_slope(cfg, roots[-1]))
    assert roots[-1] - roots[0] > 1e-6


def _seeded_cell(seed):
    """(omega2, kappa2, sigma, a, b) of a seeded system and cell: N in 1-9, kappa of either sign, a
    at the branch point max|omega|/|kappa| for every third seed, widths from 2e-12 to 2 right of it."""
    rng = np.random.default_rng([seed, 26])
    n = 1 + seed % 9
    omega = rng.uniform(-1.0, 1.0, n)
    kappa = (-1.0) ** seed * wf.critical_coupling(omega) * rng.uniform(0.5, 4.0)
    cfg = wf.SystemConfig(n=n, omega=omega, kappa=kappa)
    omega2, kappa2 = equilibria._scaled_squares(cfg)
    lo = cfg.omega_max / abs(kappa)
    width = 2.0 * 10.0 ** rng.uniform(-12.0, 0.0)
    a = lo if seed % 3 == 0 else rng.uniform(lo, lo + 2.0 - width)
    return omega2, kappa2, rng.choice([-1.0, 1.0], n), a, a + width


@pytest.mark.parametrize("seed", range(90))
def test_cell_bounds_enclose_f_and_its_slope(seed):
    # f sampled at 4001 points of the cell lies within the bounds widened by
    # the rounding allowance, and f' within the slope bounds, for cell ends
    # from the matrix products (as the coarse grid's) and from direct sums (as a
    # halved cell's); at the branch point the slope is infinite
    omega2, kappa2, sigma, a, b = _seeded_cell(seed)
    n = omega2.size
    r = np.linspace(a, b, 4001)
    f = equilibria._branch_values(omega2, kappa2, sigma, r)
    x = omega2 / (kappa2 * np.square(r)[:, None])
    inner = np.all(x < 1.0, axis=-1)
    slope = np.sum(sigma * x[inner] / np.sqrt(1.0 - x[inner]), axis=-1) / (n * r[inner]) - 1.0
    grid = equilibria._grid_ends(omega2, kappa2, sigma[None], np.array([a, b]))[:, 0]
    ends = [grid]
    if seed % 3:
        ends.append(equilibria._ends(omega2, kappa2, np.tile(sigma, (2, 1)), np.array([a, b])))
    allowance = float(equilibria._allowance(np.array(b)))
    for left, right in (end.T for end in ends):
        lower, upper, slope_lower, slope_upper = (float(v[0]) for v in equilibria._cell_bounds(
            n, np.array([a]), np.array([b]), left[:, None], right[:, None]))
        assert lower - allowance <= np.min(f) and np.max(f) <= upper + allowance, (lower, upper)
        slack = 1e-12 * (1.0 + np.max(np.abs(slope)))
        assert slope_lower <= np.min(slope) + slack and np.max(slope) - slack <= slope_upper


def test_newton_roots_lie_in_their_brackets_next_to_the_bisection_root(monkeypatch):
    # every one-root bracket that the isolation finds in a seeded cell (N 1-9,
    # kappa of either sign, a third of the cells starting at the branch point),
    # and for every signature from the cell's left end up to R_UPPER, gets a
    # root inside it with |f| < ROOT_TOL, within 2 ROOT_TOL / |f'| of the
    # root that bisection of the same bracket to |f| < ROOT_TOL gives
    calls = _solved_brackets(monkeypatch)
    at_branch = brackets = 0
    for seed in range(90):
        omega2, kappa2, sigma, a, b = _seeded_cell(seed)
        equilibria._branch_roots(omega2, kappa2, sigma[None], a, b)
        if a < equilibria.R_UPPER:
            equilibria._branch_roots(omega2, kappa2, equilibria._signatures(omega2.size), a, equilibria.R_UPPER)
    for omega2, kappa2, sigma, a, b, fa, roots, _ in calls:
        bisected, _ = _reference_bisect(omega2, kappa2, sigma, a, b, fa)
        f, _, _, slope_plus, slope_minus = equilibria._ends(omega2, kappa2, sigma, roots)
        slope = (slope_plus - slope_minus) / omega2.size - 1.0
        assert np.all((a <= roots) & (roots <= b))
        assert np.all(np.abs(f) < equilibria.ROOT_TOL)
        assert np.all(np.abs(roots - bisected) <= 2.0 * equilibria.ROOT_TOL / np.abs(slope))
        at_branch += int(np.sum(np.isinf(equilibria._ends(omega2, kappa2, sigma, a)[3:]).any(axis=0)))
        brackets += a.size
    assert brackets >= 1000 and at_branch >= 40, (brackets, at_branch)


def test_newton_step_budget(monkeypatch):
    # deterministic step counts: at most 4 steps per bracket over the
    # equilibria benchmark's systems (N 6-8, omega ~ U(-0.2, 0.2), kappa = 1,
    # one simple root per signature), and at most 12 for every bracket of the
    # all-plus branch next to the fold and far above it, at N up to 200
    for n in (6, 7, 8):
        for seed in range(3):
            cfg = wf.SystemConfig(n=n, omega=np.random.default_rng([seed, n]).uniform(-0.2, 0.2, n), kappa=1.0)
            *_, counts = equilibria._fixed_point_roots(cfg, equilibria._signatures(n), 0.0, equilibria.R_UPPER)
            assert counts["brackets"] == 2**n and counts["steps"] <= 4 * counts["brackets"], (n, seed, counts)
    solve, calls = equilibria._newton_brackets, _solved_brackets(monkeypatch)
    for n in (2, 3, 5, 8, 20, 200):
        for seed in range(12):
            omega = np.random.default_rng([seed, n]).uniform(-1.0, 1.0, n)
            kc = wf.critical_coupling(omega)
            for ratio in (1 + 1e-9, 1 + 1e-6, 1 + 1e-5, 1.01, 1.5, 4.0):
                for sign in (1.0, -1.0):
                    solve_R_equation(wf.SystemConfig(n=n, omega=omega, kappa=sign * ratio * kc),
                                     Signature(np.ones(n, dtype=int)))
    assert sum(call[3].size for call in calls) >= 800
    for omega2, kappa2, sigma, a, b, fa, _, _ in calls:
        for k in range(a.size):
            one = slice(k, k + 1)
            _, steps = solve(omega2, kappa2, sigma[one], a[one], b[one], fa[one])
            assert steps <= 12, (omega2, kappa2, a[k], b[k], steps)


@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_newton_chunks_give_the_roots_of_one_solve(monkeypatch, chunk):
    # each bracket is solved independently, so solving them NEWTON_BRACKETS
    # at a time changes no root and no count
    cfg = wf.SystemConfig(n=9, omega=np.random.default_rng(9).uniform(-0.3, 0.3, 9), kappa=1.0)
    sigmas = equilibria._signatures(9)
    *want, counts = equilibria._fixed_point_roots(cfg, sigmas, 0.0, equilibria.R_UPPER)
    assert counts["brackets"] > 4 * chunk
    monkeypatch.setattr(equilibria, "NEWTON_BRACKETS", chunk)
    *got, got_counts = equilibria._fixed_point_roots(cfg, sigmas, 0.0, equilibria.R_UPPER)
    assert all(np.array_equal(x, y) for x, y in zip(got, want)) and got_counts == counts


def test_isolation_keeps_a_root_on_a_grid_point_and_one_at_the_branch_point(caplog):
    # a root within rounding of a coarse grid point is found once, there; and
    # the boundary system's root R = 1 at the branch point (f(lo) = 0, where
    # the cells next to it never decide) is the one f(lo) root, not a tangent
    cfg = _grid_point_root_system()
    grid = np.linspace(cfg.omega_max, equilibria.R_UPPER, equilibria.COARSE_CELLS + 1)
    roots = solve_R_equation(cfg, Signature(np.array([-1, 1, 1, 1, 1])))
    near = [r for r in roots if abs(r - grid[11]) < 1e-6]
    assert near == [grid[11]], (roots, grid[11])
    with caplog.at_level(logging.DEBUG, logger="winfree.equilibria"):
        records = wf.enumerate_equilibria(_BOUNDARY7)
    assert len(records) == 65
    assert [rec.R for rec in records].count(1.0) == 1
    assert not any(m.startswith("tangent cell") for m in caplog.messages)


def _greedy_dedup(theta):
    """Rows of theta not within DEDUP_TOL of an earlier kept row, comparing each row with every kept row."""
    kept = []
    for i, row in enumerate(theta):
        if all(np.max(np.abs(model.wrap_to_pi(row - theta[k]))) >= equilibria.DEDUP_TOL for k in kept):
            kept.append(i)
    return kept


def _key_cells(theta):
    return np.floor(np.mean(np.cos(theta), axis=-1) / (2 * equilibria.DEDUP_TOL)).astype(np.int64)


def _check_dedup(theta):
    """_dedup gives the greedy rows, and compares exactly the rows with another row at most one key cell away."""
    kept, compared = equilibria._dedup(theta)
    assert kept.tolist() == _greedy_dedup(theta)
    gap = np.abs(_key_cells(theta)[:, None] - _key_cells(theta)[None, :])
    assert compared == int(np.sum(np.sum(gap <= 1, axis=1) > 1))
    return gap


def _planted_stack(rng, n, bases, copies):
    """Random rows in (-pi, pi], a third of them within DEDUP_TOL/2 of pi, with copies, all in a shuffled order.

    A copy moves its row by 0.5 to 6 DEDUP_TOL in one entry, in every entry
    with random signs, or in every entry along -sign(sin theta), which moves
    its key cell most; so pairs lie just under and just over the threshold,
    across the wrap at +-pi, and zero to a few key cells apart.
    """
    tol = equilibria.DEDUP_TOL
    base = rng.uniform(-np.pi, np.pi, (bases, n))
    base[::3, 0] = np.pi - rng.uniform(0.0, 0.5 * tol, base[::3].shape[0])
    rows = [base]
    for _ in range(copies):
        scale = rng.choice([0.5, 0.999, 0.9999, 1.001, 1.5, 3.0, 6.0], (bases, 1)) * tol
        kind = rng.integers(0, 3, (bases, 1))
        direction = np.where(kind == 2, -np.sign(np.sin(base)), rng.choice([-1.0, 1.0], (bases, n)))
        direction[(kind[:, 0] == 0), 1:] = 0.0
        rows.append(equilibria._canonical(base + scale * direction))
    theta = np.concatenate(rows)
    return theta[rng.permutation(len(theta))]


@pytest.mark.parametrize("seed", range(6))
def test_dedup_prepass_equals_greedy_comparison_of_every_pair(seed):
    # the pre-pass keeps a row unseen only when no other row lies within one
    # key cell; planted copies just under and just over DEDUP_TOL, across the
    # wrap at +-pi and in the next key cell must still go through the loop
    rng = np.random.default_rng([seed, 31])
    theta = _planted_stack(rng, int(rng.integers(1, 5)), 60, 3)
    gap = _check_dedup(theta)
    tol = equilibria.DEDUP_TOL
    close = np.max(np.abs(model.wrap_to_pi(theta[:, None] - theta[None, :])), axis=-1) < tol
    np.fill_diagonal(close, False)
    wrapped = np.any(np.abs(theta[:, None] - theta[None, :]) > np.pi, axis=-1)
    assert np.any(close & (gap == 1)) and np.any(close & (gap == 0)) and np.any(close & wrapped)
    assert np.any(gap == 2) and np.any(~close & (gap <= 1))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    bases=st.integers(1, 12),
    copies=st.integers(0, 3),
)
def test_dedup_prepass_equals_greedy_comparison_on_random_stacks(n, seed, bases, copies):
    _check_dedup(_planted_stack(np.random.default_rng(seed), n, bases, copies))


def test_dedup_compares_rows_one_and_two_key_cells_apart_as_the_window_says():
    # rows whose keys are one cell apart are both compared (and the later one
    # dropped when within DEDUP_TOL); two cells apart neither is compared
    tol = equilibria.DEDUP_TOL
    edge = math.acos(2 * tol * 12345)  # cos(edge) on a key cell boundary
    theta = np.array([[edge - 0.25 * tol], [edge + 0.25 * tol], [edge + 3.0 * tol]])
    cells = _key_cells(theta).tolist()
    assert cells[0] - cells[1] == 1 and cells[0] - cells[2] == 2
    assert _check_dedup(theta)[1, 2] == 1
    kept, compared = equilibria._dedup(theta[[0, 2]])
    assert kept.tolist() == [0, 1] and compared == 0


@pytest.mark.parametrize("entries", [
    [1, -1, 1], [1.0, -1.0], np.array([-1, 1], dtype=np.int8), [0, 1], [2, -1], [-2], [0.5, 1], [1.5, -1.0],
    [-1.5], np.array([]), np.array([[1, -1], [-1, 1]]), np.array([[1, -1], [0, 1]]), [1.0, 0.999],
])
def test_signature_accepts_exactly_the_rows_of_unit_integers(entries):
    # the set test accepts and refuses what np.all(|int entries| == 1) did
    accepted = bool(np.all(np.abs(np.asarray(entries, dtype=int)) == 1))
    if accepted:
        sigma = Signature(entries).sigma
        assert sigma.dtype == np.dtype(int) and np.array_equal(sigma, np.asarray(entries, dtype=int))
    else:
        with pytest.raises(DomainError):
            Signature(entries)


def test_signature_table_is_int8_without_wide_temporaries():
    for n in range(6):
        want = 1 - 2 * ((np.arange(2**n)[:, None] >> np.arange(n)) & 1)
        assert np.array_equal(equilibria._signatures(n), want)
    tracemalloc.start()
    try:
        table = equilibria._signatures(18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.dtype == np.int8 and table.shape == (2**18, 18)
    assert peak <= 10 * 2**20, peak  # the table is 4.5 MB; int64 rows would be 36 MB
    records = wf.enumerate_equilibria(wf.SystemConfig(n=3, omega=np.array([0.1, -0.2, 0.15]), kappa=1.0))
    assert {rec.signature.sigma.dtype for rec in records} == {np.dtype(int)}
