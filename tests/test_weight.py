import math

import numpy as np
import pytest
from scipy.integrate import quad

from chemolab.weight import (
    admissible_bound,
    coefficients,
    epsilon_for_threshold,
    make_weight,
    p_for_equality,
)


def test_coefficients_closed_form():
    a, b, c, d = coefficients(2.0, 0.5)
    assert a == 1.0
    assert b == -2.0
    assert c == 3.0
    assert d == 1.0


def test_discriminant_two_closed_forms_agree():
    # 4ac - b^2 computed directly and via the factored form.
    a, b, c, d = coefficients(2.0, 0.5)
    disc = 4.0 * a * c - b * b
    assert disc == pytest.approx(8.0, rel=1e-14)
    alt = (16.0 * 1.0 / 2.0) * (1.0 + 0.5 - 2.0 * 0.25)
    assert alt == pytest.approx(disc, rel=1e-14)


def test_discriminant_forms_agree_randomly():
    rng = np.random.default_rng(7)
    for _ in range(100):
        p = 1.0 + 9.0 * rng.random()
        eps = rng.uniform(1e-3, 1.0 - 1e-3)
        a, b, c, d = coefficients(p, eps)
        disc = 4.0 * a * c - b * b
        alt = (16.0 * (p - 1.0) ** 2 / p) * (1.0 + (p - 1.0) * eps - p * eps * eps)
        assert alt == pytest.approx(disc, rel=1e-12)
        assert disc > 0.0


def test_coefficients_degenerate_limit():
    # p -> 1: a, b, d vanish, c -> 4/p; exactly p = 1 is rejected.
    a, b, c, d = coefficients(1.0 + 1e-9, 0.4)
    assert abs(a) < 1e-17
    assert abs(b) < 1e-8
    assert abs(d) < 1e-8
    assert c == pytest.approx(4.0, rel=1e-8)
    with pytest.raises(ValueError):
        coefficients(1.0, 0.4)
    with pytest.raises(ValueError):
        coefficients(2.0, 0.0)
    with pytest.raises(ValueError):
        coefficients(2.0, 1.0)


def test_admissible_bound_value():
    assert admissible_bound(2.0, 0.3) == pytest.approx(1.826, abs=1e-3)
    # pi/2 is therefore admissible, 1.9 is not
    assert math.pi / 2 < admissible_bound(2.0, 0.3)
    assert 1.9 > admissible_bound(2.0, 0.3)


def test_admissible_bound_is_the_tangent_singularity():
    # Independent characterisation: at s = bound the tangent argument
    # kappa*s + theta0 reaches exactly pi/2.
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = 1.0 + 9.0 * rng.random()
        eps = rng.uniform(1e-3, 1.0 - 1e-3)
        a, b, c, d = coefficients(p, eps)
        disc = 4.0 * a * c - b * b
        kappa = math.sqrt(disc) / (2.0 * d)
        theta0 = math.atan(b / math.sqrt(disc))
        bound = admissible_bound(p, eps)
        assert kappa * bound + theta0 == pytest.approx(math.pi / 2, rel=1e-12)


def test_admissible_bound_small_eps_limit():
    # arctan(0) = 0 gives pi/sqrt(p).
    for p in (1.5, 2.0, 5.0):
        assert admissible_bound(p, 1e-12) == pytest.approx(
            math.pi / math.sqrt(p), rel=1e-9
        )


def test_make_weight_accepts_and_rejects():
    make_weight(2.0, 0.3, math.pi / 2)
    with pytest.raises(ValueError):
        make_weight(2.0, 0.3, 1.83)
    bound = admissible_bound(2.0, 0.3)
    with pytest.raises(ValueError):
        make_weight(2.0, 0.3, bound)
    # within rounding distance of the bound: also rejected
    with pytest.raises(ValueError):
        make_weight(2.0, 0.3, bound * (1.0 - 1e-15))
    # comfortably below: accepted
    make_weight(2.0, 0.3, bound - 1e-6)


def test_make_weight_degenerate_m_zero():
    wf = make_weight(2.0, 0.3, 0.0)
    assert wf.phi(0.0) == 1.0
    with pytest.raises(ValueError):
        wf.phi(1e-9)


def test_z_at_zero_and_domain():
    wf = make_weight(2.0, 0.3, math.pi / 2)
    assert wf.z(0.0) == 0.0
    with pytest.raises(ValueError):
        wf.z(-1e-12)
    with pytest.raises(ValueError):
        wf.z(wf.m * (1.0 + 1e-9))


@pytest.mark.parametrize(
    "p,eps,m_frac",
    [(2.0, 0.3, None), (5.0, 0.1, 0.9), (1.2, 0.7, 0.9)],
)
def test_z_matches_quadrature_oracle(p, eps, m_frac):
    # Independent oracle: adaptive quadrature of the tangent integrand.
    m = math.pi / 2 if m_frac is None else m_frac * admissible_bound(p, eps)
    wf = make_weight(p, eps, m)
    sq = math.sqrt(wf.disc)
    for s in (0.3 * m, 0.62 * m, 0.97 * m, m):
        integral, err = quad(
            lambda tau: math.tan(wf.kappa * tau + wf.theta0),
            0.0,
            s,
            epsabs=1e-13,
            epsrel=1e-13,
            limit=200,
        )
        expected = -(wf.b / (2.0 * wf.c)) * s + (sq / (2.0 * wf.c)) * integral
        assert wf.z(s) == pytest.approx(expected, abs=1e-10)


def test_z_slope_vanishes_at_zero():
    wf = make_weight(2.0, 0.3, math.pi / 2)
    for h in (1e-4, 1e-6, 1e-8):
        assert abs(wf.z(h) / h) < 10.0 * h  # z ~ z''(0) h^2 / 2


def test_phi_at_zero():
    wf = make_weight(2.0, 0.3, math.pi / 2)
    assert wf.phi(0.0) == 1.0
    assert abs(wf.phi_prime(0.0)) < 1e-14


def test_phi_prime_nonnegative_on_samples():
    wf = make_weight(2.0, 0.3, math.pi / 2)
    s = np.linspace(0.0, wf.m, 1000)
    assert np.all(wf.phi_prime(s) >= -1e-12)


def test_second_order_identity_relative():
    # phi''/p - phi' must equal ((p-1) phi - 2 phi')^2 / (4 (p-1)(1-eps) phi).
    wf = make_weight(2.0, 0.3, math.pi / 2)
    s = np.linspace(0.0, wf.m, 500)
    phi = wf.phi(s)
    lhs = wf.phi_second(s) / wf.p - wf.phi_prime(s)
    rhs = ((wf.p - 1.0) * phi - 2.0 * wf.phi_prime(s)) ** 2 / (
        4.0 * (wf.p - 1.0) * (1.0 - wf.eps) * phi
    )
    assert np.allclose(lhs, rhs, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize(
    "p,eps,m_frac",
    [(2.0, 0.3, None), (5.0, 0.1, 0.9)],
)
def test_identity_residual_small(p, eps, m_frac):
    m = math.pi / 2 if m_frac is None else m_frac * admissible_bound(p, eps)
    wf = make_weight(p, eps, m)
    s = np.linspace(0.0, m, 1000)
    res = wf.identity_residual(s)
    phi_m = wf.phi(m)
    assert np.max(np.abs(res)) <= 1e-8 * max(1.0, phi_m)


def test_residual_at_zero():
    wf = make_weight(2.0, 0.3, math.pi / 2)
    assert abs(wf.identity_residual(0.0)) <= 1e-9


def test_derivatives_match_finite_differences():
    wf = make_weight(2.0, 0.3, math.pi / 2)
    s = np.linspace(0.05, wf.m - 0.05, 40)
    h = 1e-6
    fd1 = (wf.phi(s + h) - wf.phi(s - h)) / (2.0 * h)
    fd2 = (wf.phi(s + h) - 2.0 * wf.phi(s) + wf.phi(s - h)) / (h * h)
    assert np.allclose(wf.phi_prime(s), fd1, rtol=1e-6)
    assert np.allclose(wf.phi_second(s), fd2, rtol=1e-3)


def test_phi_bounded_between_one_and_phi_m():
    rng = np.random.default_rng(23)
    for _ in range(20):
        p = 1.0 + 9.0 * rng.random()
        eps = rng.uniform(0.01, 0.99)
        m = 0.9 * admissible_bound(p, eps)
        wf = make_weight(p, eps, m)
        s = np.linspace(0.0, m, 400)
        phi = wf.phi(s)
        assert np.all(phi >= 1.0 - 1e-12)
        assert np.all(phi <= wf.phi(m) + 1e-12 * max(1.0, wf.phi(m)))


def test_epsilon_for_threshold_values():
    assert epsilon_for_threshold(0.0, 2) == 0.5
    assert epsilon_for_threshold(math.pi / 2, 2) == pytest.approx(0.3, abs=1e-14)
    with pytest.raises(ValueError):
        epsilon_for_threshold(math.sqrt(2.0 / 3.0) * math.pi, 3)


def test_epsilon_round_trip_identity():
    # eps then the defining amplitude identity must reproduce m.
    for n in (2, 3, 4):
        limit = math.sqrt(2.0 / n) * math.pi
        for frac in np.linspace(0.05, 0.95, 10):
            m = frac * limit
            eps = epsilon_for_threshold(m, n)
            assert 0.0 < eps <= 0.5
            half_n = 0.5 * n
            m_back = (
                (2.0 / math.sqrt(half_n))
                * math.sqrt((1.0 - 2.0 * eps) / (1.0 + 2.0 * eps * half_n))
                * (math.pi / 2.0)
            )
            assert abs(m_back - m) <= 1e-12 * max(1.0, m)


def test_p_for_equality_anchor():
    # quadratic oracle: 0.3 p^2 + p - 2.8 = 0
    p = p_for_equality(math.pi / 2, 0.3)
    oracle = (-1.0 + math.sqrt(1.0 + 4.0 * 0.3 * 2.8)) / (2.0 * 0.3)
    assert p == pytest.approx(oracle, rel=1e-12)
    assert p == pytest.approx(1.8135, abs=1e-3)
    assert p > 1.0  # n/2 for n = 2
    # the root satisfies the amplitude restriction strictly
    assert admissible_bound(p, 0.3) > math.pi / 2
    make_weight(p, 0.3, math.pi / 2)


def test_p_for_equality_quadratic_residual():
    rng = np.random.default_rng(31)
    for _ in range(50):
        eps = rng.uniform(0.01, 0.99)
        m = rng.uniform(0.05, 2.0)
        try:
            p = p_for_equality(m, eps)
        except ValueError:
            continue  # amplitude too large for a p > 1 construction
        target = math.pi**2 * (1.0 - eps) / (m * m)
        assert eps * p * p + p == pytest.approx(target, rel=1e-12)


def test_p_for_equality_grows_as_m_shrinks():
    assert p_for_equality(1e-3, 0.3) > p_for_equality(1e-1, 0.3) > p_for_equality(
        1.0, 0.3
    )


def test_p_for_equality_rejects_large_amplitude():
    with pytest.raises(ValueError):
        p_for_equality(3.0, 0.5)  # root drops below 1
    with pytest.raises(ValueError):
        p_for_equality(0.0, 0.5)
    with pytest.raises(ValueError):
        p_for_equality(1.0, 0.0)


def test_p_for_equality_rejects_amplitudes_too_small_for_a_usable_p():
    # the root grows like 1/m; past sqrt(float max)/4 make_weight's 16 p^2
    # would overflow, and below m ~ 1.5e-162 m^2 itself underflows to 0
    for m in (2.3e-154, 1e-160, 1e-170, 1e-300, 5e-324):
        with pytest.raises(ValueError, match="amplitude too small"):
            p_for_equality(m, 0.5)
    with pytest.raises(ValueError, match="p must be"):
        make_weight(1e200, 0.5, 0.1)
