import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ablab.euler_arnold import (AlgebraElement, GroupElement, MomentumState,
                                ad_g, bracket, coad_g, coadjoint_bracket,
                                euler_arnold_rhs, inverse, momentum_to_plane,
                                multiply, pair)
from ablab.model import flow_unperturbed, unperturbed_rhs

IDENTITY = GroupElement(1.0, 0.0)


def ulp_close(a, b, scale, n_ulp=8):
    return abs(a - b) <= n_ulp * np.spacing(max(abs(scale), 1e-300))


def group_exp(xi, t=1.0):
    """exp(t xi) = [[e^{t xi1}, xi2 (e^{t xi1} - 1)/xi1], [0, 1]], with the
    xi1 -> 0 limit [[1, xi2 t], [0, 1]]: the oracle for the bracket."""
    u = t * xi.xi1
    f = t if xi.xi1 == 0.0 else math.expm1(u) / xi.xi1
    return GroupElement(math.exp(u), xi.xi2 * f)


def momentum_flow(m0, t):
    """The momentum equation integrated on its own, independently of the
    planar flow it is claimed to equal."""
    sol = solve_ivp(lambda _, m: euler_arnold_rhs(MomentumState(*m)),
                    (0.0, t), list(m0), method="DOP853", rtol=1e-12,
                    atol=1e-12)
    return MomentumState(*sol.y[:, -1])


def rand_group(rng):
    return GroupElement(float(rng.uniform(0.2, 3.0)),
                        float(rng.uniform(-2.0, 2.0)))


def rand_alg(rng):
    return AlgebraElement(float(rng.uniform(-2.0, 2.0)),
                          float(rng.uniform(-2.0, 2.0)))


def test_multiplication_law():
    g = multiply(GroupElement(2.0, 1.0), GroupElement(3.0, 4.0))
    assert (g.a, g.b) == (6.0, 9.0)


def test_inverse_and_identity():
    g = GroupElement(2.0, 1.0)
    assert inverse(g) == GroupElement(0.5, -0.5)
    gi = multiply(g, inverse(g))
    assert gi == IDENTITY
    assert multiply(g, IDENTITY) == g == multiply(IDENTITY, g)
    with pytest.raises(ValueError):
        GroupElement(-1.0, 0.0)


def test_adjoint_formula_and_identity_element():
    g = GroupElement(2.0, 3.0)
    eta = AlgebraElement(1.0, 1.0)
    out = ad_g(g, eta)
    assert (out.xi1, out.xi2) == (1.0, -3.0 * 1.0 + 2.0 * 1.0)
    out = ad_g(IDENTITY, eta)
    assert (out.xi1, out.xi2) == (eta.xi1, eta.xi2)


def test_adjoint_is_group_homomorphism():
    rng = np.random.default_rng(100)
    for _ in range(100):
        g, h = rand_group(rng), rand_group(rng)
        eta = rand_alg(rng)
        lhs = ad_g(multiply(g, h), eta)
        rhs = ad_g(g, ad_g(h, eta))
        scale = abs(eta.xi1) + abs(g.b * eta.xi1) + abs(g.a * h.b * eta.xi1) \
            + abs(g.a * h.a * eta.xi2)
        assert ulp_close(lhs.xi1, rhs.xi1, scale)
        assert ulp_close(lhs.xi2, rhs.xi2, scale)


def test_coadjoint_pairing_duality():
    rng = np.random.default_rng(101)
    for _ in range(100):
        g = rand_group(rng)
        xi = rand_alg(rng)
        eta = rand_alg(rng)
        lhs = pair(coad_g(g, xi), eta)
        rhs = pair(xi, ad_g(g, eta))
        scale = abs(xi.xi1 * eta.xi1) + abs(g.b * xi.xi2 * eta.xi1) \
            + abs(g.a * xi.xi2 * eta.xi2)
        assert ulp_close(lhs, rhs, scale)


def test_bracket_formula_and_axioms():
    e1 = AlgebraElement(1.0, 0.0)
    e2 = AlgebraElement(0.0, 1.0)
    out = bracket(e1, e2)
    assert (out.xi1, out.xi2) == (0.0, 1.0)
    rng = np.random.default_rng(102)
    for _ in range(100):
        xi, eta, zeta = (rand_alg(rng) for _ in range(3))
        assert bracket(xi, xi).xi2 == 0.0
        anti = bracket(xi, eta).xi2 + bracket(eta, xi).xi2
        assert anti == 0.0  # exact: a*b - c*d plus its negation
        jac = bracket(xi, bracket(eta, zeta)).xi2 \
            + bracket(eta, bracket(zeta, xi)).xi2 \
            + bracket(zeta, bracket(xi, eta)).xi2
        scale = 6.0 * max(abs(v) for v in
                          (xi.xi1, xi.xi2, eta.xi1, eta.xi2,
                           zeta.xi1, zeta.xi2)) ** 3
        assert ulp_close(jac, 0.0, scale)


def test_coadjoint_bracket_formula_and_duality():
    out = coadjoint_bracket(AlgebraElement(1.0, 2.0),
                            AlgebraElement(3.0, 4.0))
    assert (out.xi1, out.xi2) == (-8.0, 4.0)
    z = coadjoint_bracket(AlgebraElement(1.0, 2.0),
                          AlgebraElement(5.0, 0.0))
    assert (z.xi1, z.xi2) == (0.0, 0.0)
    rng = np.random.default_rng(103)
    for _ in range(100):
        xi, eta = rand_alg(rng), rand_alg(rng)
        zeta = rand_alg(rng)
        lhs = pair(coadjoint_bracket(xi, zeta), eta)
        rhs = pair(zeta, bracket(xi, eta))
        scale = abs(xi.xi2 * zeta.xi2 * eta.xi1) \
            + abs(xi.xi1 * zeta.xi2 * eta.xi2)
        assert ulp_close(lhs, rhs, scale)


def test_group_exp_closed_form():
    g = group_exp(AlgebraElement(0.0, 3.0), t=2.0)
    assert (g.a, g.b) == (1.0, 6.0)
    g = group_exp(AlgebraElement(1.0, 1.0), t=1.0)
    assert g.a == pytest.approx(math.e)
    assert g.b == pytest.approx(math.e - 1.0)


def test_bracket_is_derivative_of_adjoint():
    # [xi, eta] = d/dt Ad_{exp(t xi)} eta at t=0, by central differences
    rng = np.random.default_rng(104)
    dt = 1e-6
    for _ in range(20):
        xi, eta = rand_alg(rng), rand_alg(rng)
        plus = ad_g(group_exp(xi, dt), eta)
        minus = ad_g(group_exp(xi, -dt), eta)
        fd = ((plus.xi1 - minus.xi1) / (2 * dt),
              (plus.xi2 - minus.xi2) / (2 * dt))
        br = bracket(xi, eta)
        assert fd[0] == pytest.approx(br.xi1, abs=1e-6)
        assert fd[1] == pytest.approx(br.xi2, abs=1e-6)


def test_momentum_equation_equals_planar_field_exactly():
    # both sides are the same polynomial: exact equality on random points
    rng = np.random.default_rng(105)
    for _ in range(1000):
        m = MomentumState(float(rng.uniform(-3, 3)),
                          float(rng.uniform(-3, 3)))
        dm = euler_arnold_rhs(m)
        x, y = momentum_to_plane(m)
        dx, dy = unperturbed_rhs((x, y))
        assert dm.m2 == dx and dm.m1 == -dy


def test_momentum_example_point():
    dm = euler_arnold_rhs(MomentumState(-2.0, 1.0))
    assert (dm.m1, dm.m2) == (-1.0, -2.0)


def test_momentum_equilibrium_line():
    for m1 in (-3.7, 0.0, 2.5):
        dm = euler_arnold_rhs(MomentumState(m1, 0.0))
        assert (dm.m1, dm.m2) == (0.0, 0.0)


def test_momentum_flow_matches_planar_flow():
    m = momentum_flow(MomentumState(-4.0, 3.0), 50.0)
    assert abs(m.m1 - (-5.0)) < 1e-4 and abs(m.m2) < 1e-4
    # pointwise agreement with the planar flow at a shorter horizon
    for t in (0.5, 2.0):
        m_t = momentum_flow(MomentumState(-4.0, 3.0), t)
        s_t = flow_unperturbed((3.0, 4.0), t, tol=1e-10)
        assert momentum_to_plane(m_t)[0] == pytest.approx(s_t.x, abs=1e-8)
        assert momentum_to_plane(m_t)[1] == pytest.approx(s_t.y, abs=1e-8)


def test_roundtrip_coordinate_maps():
    # (x, y) = (m2, -m1), inverted by m = (-y, x)
    m = MomentumState(-1.5, 2.5)
    x, y = momentum_to_plane(m)
    assert (x, y) == (2.5, 1.5)
    assert MomentumState(-y, x) == m
