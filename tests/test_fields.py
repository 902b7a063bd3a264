import numpy as np
import pytest

from hgineq import (
    InvalidParameterError,
    PolyFactor,
    UnsupportedDomainError,
    default_norm,
    dilate,
    dilate_field,
    gaussian_profile,
    generic_field,
    log_gaussian_profile,
    make_norm,
    parse_group,
    product_field,
    radial_field,
)


@pytest.fixture
def heis_pair():
    g = parse_group("heis1")
    return g, default_norm(g)


def test_radial_field_masks_outside_support(heis_pair):
    g, n = heis_pair
    f = radial_field(gaussian_profile(1.0), n, support=(0.5, 2.0), field_id="g")
    assert f.is_quasi_radial
    x = np.array([[1.0, 0.0, 0.0], [0.1, 0.0, 0.0], [5.0, 0.0, 0.0]])
    v = f.values(x)
    assert v[0] == pytest.approx(np.exp(-0.5))
    assert v[1] == 0.0 and v[2] == 0.0
    # single-point call returns a scalar
    single = f.values(np.array([1.0, 0.0, 0.0]))
    assert np.ndim(single) == 0


def test_radial_field_requires_positive_annulus(heis_pair):
    g, n = heis_pair
    with pytest.raises(InvalidParameterError):
        radial_field(gaussian_profile(1.0), n, support=(0.0, 2.0))
    with pytest.raises((InvalidParameterError, UnsupportedDomainError)):
        radial_field(gaussian_profile(1.0), n)  # no support anywhere


def test_radial_field_gradient_chain_rule():
    g = parse_group("r:3")
    n = default_norm(g)
    f = radial_field(gaussian_profile(1.0), n, support=(0.1, 10.0), field_id="g")
    rng = np.random.default_rng(0)
    x = rng.normal(size=(30, 3))
    r = np.linalg.norm(x, axis=-1)
    keep = (r > 0.2) & (r < 5.0)
    x, r = x[keep], r[keep]
    grad = f.gradient(x)
    expected = (-r * np.exp(-(r**2) / 2))[:, None] * (x / r[:, None])
    assert np.allclose(grad, expected, rtol=1e-12, atol=1e-14)


def test_poly_factor_monomials_and_degrees():
    q = PolyFactor(exponents=((1, 0, 0), (0, 0, 2)), coeffs=(2.0, -1.0j))
    x = np.array([[1.5, 7.0, -2.0], [-1.0, 0.0, 3.0]])
    v = q(x)
    assert np.allclose(v, [2 * 1.5 - 1.0j * 4.0, -2.0 - 1.0j * 9.0])
    g = parse_group("heis1")
    # weighted degrees under weights (1,1,2): x1 -> 1, x3^2 -> 4
    assert tuple(q.weighted_degrees(g.weights)) == (1.0, 4.0)
    with pytest.raises(InvalidParameterError):
        PolyFactor(exponents=((0.5, 0, 0),), coeffs=(1.0,))


def test_poly_factor_monomials_match_powers():
    # monomials multiply out powers; ** on the exponents is the reference
    q = PolyFactor(exponents=((0, 0, 0), (3, 0, 1), (0, 2, 0), (1, 1, 4)), coeffs=(1, 2, 3, 4))
    x = np.random.default_rng(1).normal(size=(7, 5, 3))
    expected = np.prod(x[..., None, :] ** np.asarray(q.exponents), axis=-1)
    assert q.monomials(x).shape == (7, 5, 4)
    assert np.allclose(q.monomials(x), expected, rtol=1e-15, atol=0)
    assert np.allclose(q.monomials(x[0, 0]), expected[0, 0], rtol=1e-15, atol=0)


def test_product_field_values_and_gradient(heis_pair):
    g, n = heis_pair
    prof = log_gaussian_profile(1.0, 0.0, 0.5)
    q = PolyFactor(exponents=((1, 0, 0), (0, 0, 1)), coeffs=(1.0, 0.5))
    f = product_field(prof, q, n, support=(0.05, 20.0), field_id="pq")
    assert not f.is_quasi_radial
    rng = np.random.default_rng(1)
    x = rng.normal(size=(20, 3))
    r = np.asarray(n(x))
    expected = prof(r) * (x[:, 0] + 0.5 * x[:, 2])
    assert np.allclose(f.values(x), expected, rtol=1e-13)
    # gradient vs central differences
    grad = f.gradient(x)
    h = 1e-6
    for i in range(3):
        dx = np.zeros(3)
        dx[i] = h
        fd = (f.values(x + dx) - f.values(x - dx)) / (2 * h)
        assert np.max(np.abs(grad[:, i] - fd)) < 1e-6


def test_product_field_dimension_check(heis_pair):
    g, n = heis_pair
    q = PolyFactor(exponents=((1, 0),), coeffs=(1.0,))
    with pytest.raises(InvalidParameterError):
        product_field(gaussian_profile(1.0), q, n, support=(0.1, 1.0))


def test_generic_field_wraps_callables(heis_pair):
    g, n = heis_pair
    f = generic_field(
        lambda x: np.sin(x[..., 0]) * np.exp(-np.asarray(n(x)) ** 2),
        support=(0.05, 10.0),
        norm=n,
        field_id="gen",
    )
    assert not f.is_quasi_radial
    assert f.gradient is None
    x = np.array([[0.3, 0.2, 0.1]])
    assert np.isfinite(f.values(x)).all()


@pytest.mark.parametrize("lam", [0.5, 2.0, 3.7])
def test_dilate_field_radial(lam):
    g = parse_group("aniso:1,2")
    n = default_norm(g)
    f = radial_field(log_gaussian_profile(1.0, 0.0, 0.4), n, support=(0.1, 10.0), field_id="b")
    fd = dilate_field(g, f, lam)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(40, 2))
    assert np.allclose(fd.values(x), f.values(dilate(g, lam, x)), rtol=1e-12, atol=1e-300)
    lo, hi = fd.support
    assert lo == pytest.approx(0.1 / lam) and hi == pytest.approx(10.0 / lam)


def test_dilate_field_product(heis_pair):
    g, n = heis_pair
    q = PolyFactor(exponents=((1, 0, 0), (0, 0, 1)), coeffs=(1.0 + 1.0j, -0.25))
    f = product_field(log_gaussian_profile(1.0, 0.0, 0.4), q, n, support=(0.1, 10.0), field_id="pq")
    lam = 1.3
    fd = dilate_field(g, f, lam)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(40, 3))
    assert np.allclose(fd.values(x), f.values(dilate(g, lam, x)), rtol=1e-12)
    assert fd.is_quasi_radial == f.is_quasi_radial


def test_dilate_field_generic(heis_pair):
    g, n = heis_pair
    base = radial_field(log_gaussian_profile(1.0, 0.0, 0.4), n, support=(0.1, 10.0), field_id="b")
    f = generic_field(base.values, base.support, norm=n, gradient=base.gradient, field_id="gen")
    lam = 0.6
    fd = dilate_field(g, f, lam)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(40, 3))
    assert np.allclose(fd.values(x), f.values(dilate(g, lam, x)), rtol=1e-12)
    # gradient picks up the weight factors: d_i (f o D_lam) = lam^{w_i} (d_i f o D_lam)
    w = g.weight_array()
    expected = lam**w * f.gradient(dilate(g, lam, x))
    assert np.allclose(fd.gradient(x), expected, rtol=1e-12)


def test_field_support_validation(heis_pair):
    g, n = heis_pair
    with pytest.raises(InvalidParameterError):
        generic_field(lambda x: x[..., 0], support=(2.0, 1.0), norm=n)
