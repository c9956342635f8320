import json
import logging
import math
import os
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import winfree as wf
from winfree import equilibria
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


@pytest.mark.parametrize("n", [3, 5, 7])
def test_equilibria_appear_at_critical_coupling(n):
    omega = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    kc = wf.critical_coupling(omega)
    below = wf.SystemConfig(n=n, omega=omega, kappa=kc * (1 - 1e-6))
    above = wf.SystemConfig(n=n, omega=omega, kappa=kc * (1 + 1e-6))
    assert wf.enumerate_equilibria(below) == []
    assert len(wf.enumerate_equilibria(above)) > 0


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
    assert any(m.startswith("tangent candidate") and m.endswith("accepted") for m in caplog.messages)
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
])
def test_w_polynomial_sturm_count_matches_roots_in(omega, kappa):
    # dyadic omega and kappa: the exact build's rational coefficients are those of this system
    cfg = wf.SystemConfig(n=len(omega), omega=np.array(omega), kappa=kappa)
    poly = wf.build_W_polynomial(cfg, exact=True)
    assert all(isinstance(c, Fraction) for c in poly.coeffs)
    lo, hi = Fraction(max(map(abs, omega))) / Fraction(kappa), Fraction(21, 10)
    assert all(sum(c * x**i for i, c in enumerate(poly.coeffs)) != 0 for x in (lo, hi))
    assert _sturm_root_count(poly.coeffs, lo, hi) == len(poly.roots_in(0.0, 2.1))


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
