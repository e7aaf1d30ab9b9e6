import numpy as np
import pytest

from softid.quadrature import ReferenceDomain, gauss_legendre, integrate_volume


def test_order_one_is_midpoint():
    rule = gauss_legendre(1)
    assert np.allclose(rule.nodes, [0.0])
    assert np.allclose(rule.weights, [2.0])


def test_order_two_classical():
    rule = gauss_legendre(2)
    assert np.allclose(sorted(rule.nodes), [-1 / np.sqrt(3), 1 / np.sqrt(3)])
    assert np.allclose(rule.weights, [1.0, 1.0])


def test_weights_sum_to_two():
    for order in (1, 2, 5, 8, 16, 33, 64):
        assert abs(gauss_legendre(order).weights.sum() - 2.0) < 1e-13


def test_monomial_exactness():
    for order in range(1, 65):
        rule = gauss_legendre(order)
        for deg in range(2 * order):
            exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
            approx = rule.weights @ rule.nodes**deg
            assert abs(approx - exact) < 1e-12


def test_rule_exactly_symmetric():
    for order in range(1, 65):
        rule = gauss_legendre(order)
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])
        assert np.array_equal(rule.weights, rule.weights[::-1])


def test_order_five_x8():
    rule = gauss_legendre(5)
    assert abs(rule.weights @ rule.nodes**8 - 2.0 / 9.0) < 1e-13


def test_order_out_of_range():
    with pytest.raises(ValueError):
        gauss_legendre(0)
    with pytest.raises(ValueError):
        gauss_legendre(65)


def test_cylinder_volume():
    dom = ReferenceDomain.cylinder(0.01, 0.3)
    vol = integrate_volume(dom, lambda x: np.ones(x.shape[0]), 8)
    exact = np.pi * 1e-4 * 0.3
    assert abs(vol - exact) < 1e-3 * exact
    assert abs(vol - 9.4248e-5) < 1e-9


def test_unit_box_volume_exact():
    dom = ReferenceDomain.box([0.5, 0.5, 0.5])
    vol = integrate_volume(dom, lambda x: np.ones(x.shape[0]), 4)
    assert abs(vol - 1.0) < 1e-14


def test_cylinder_first_moment():
    length = 0.3
    dom = ReferenceDomain.cylinder(0.01, length)
    m1 = integrate_volume(dom, lambda x: x[:, 2], 8)
    exact = length / 2.0 * dom.analytic_volume()
    assert abs(m1 - exact) < 1e-3 * exact


def test_cone_volume():
    dom = ReferenceDomain.truncated_cone(0.01, 0.005, 0.2)
    assert abs(dom.volume(8) - dom.analytic_volume()) < 1e-3 * dom.analytic_volume()


def test_mapped_box_sheared_volume():
    # unit shear keeps the volume of the box
    shear = 0.3

    def cmap(pts):
        out = pts.copy()
        out[:, 0] += shear * pts[:, 2]
        return out

    dom = ReferenceDomain.mapped_box([0.5, 0.5, 0.5], cmap, lambda pts: np.ones(pts.shape[0]))
    assert abs(dom.volume(4) - 1.0) < 1e-13


def test_linearity(rng):
    dom = ReferenceDomain.cylinder(0.02, 0.1)

    def f(x):
        return np.sin(x[:, 2] * 5) + x[:, 0]

    def g(x):
        return np.cos(x[:, 1] * 3)

    a, b = 2.0, -0.7
    lhs = integrate_volume(dom, lambda x: a * f(x) + b * g(x), 8)
    rhs = a * integrate_volume(dom, f, 8) + b * integrate_volume(dom, g, 8)
    assert abs(lhs - rhs) < 1e-12


def test_refinement_convergence():
    dom = ReferenceDomain.cylinder(0.02, 0.1)

    def f(x):
        return np.exp(x[:, 2] * 4.0) * (1.0 + x[:, 0])

    coarse = integrate_volume(dom, f, (8, 8, 8))
    fine = integrate_volume(dom, f, (16, 16, 16))
    assert abs(coarse - fine) / abs(fine) < 1e-8


def test_box_split_additivity():
    full = ReferenceDomain.box([0.5, 0.5, 0.5])
    lo = ReferenceDomain.box([0.5, 0.5, 0.25], center=[0, 0, -0.25])
    hi = ReferenceDomain.box([0.5, 0.5, 0.25], center=[0, 0, 0.25])

    def f(x):
        return x[:, 2] ** 3 + x[:, 0] * x[:, 1] + 1.0

    total = integrate_volume(full, f, 6)
    split = integrate_volume(lo, f, 6) + integrate_volume(hi, f, 6)
    assert abs(total - split) < 1e-12


def test_nonfinite_integrand_names_node():
    dom = ReferenceDomain.box([1, 1, 1])

    def bad(x):
        out = np.ones(x.shape[0])
        out[3] = np.nan
        return out

    with pytest.raises(ValueError, match="node 3"):
        integrate_volume(dom, bad, 2)


def test_vector_integrand():
    dom = ReferenceDomain.cylinder(0.01, 0.3)
    out = integrate_volume(dom, lambda x: np.stack([np.ones(len(x)), x[:, 2]], axis=1), 8)
    assert out.shape == (2,)
    assert abs(out[0] - dom.analytic_volume()) < 1e-3 * out[0]
