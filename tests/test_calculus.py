import math

import numpy as np
import pytest

from hgineq import (
    InvalidParameterError,
    MissingDerivativeError,
    PolyFactor,
    QuadratureConfig,
    SingularPointError,
    UnsupportedDomainError,
    annulus_cutoff,
    constant_profile,
    default_norm,
    gaussian_profile,
    generic_field,
    haar_integral,
    log_gaussian_profile,
    make_norm,
    nth_radial_derivative,
    parse_group,
    product_field,
    radial_derivative,
    radial_field,
    sphere_measure,
    weighted_combo_l2,
    weighted_lp_norm,
)
from hgineq.calculus import _SIGMA_CACHE


def _bump(norm, lo=0.2, hi=5.0):
    prof = log_gaussian_profile(1.0, 0.0, 0.5) * annulus_cutoff(lo, 2 * lo, hi / 2, hi)
    return radial_field(prof, norm, support=(lo, hi), field_id="bump")


# -- radial derivative --------------------------------------------------------


def test_central_coordinate_derivative_on_heisenberg(heis):
    group, norm = heis
    q = PolyFactor(exponents=((0, 0, 1),), coeffs=(1.0,))
    f = product_field(constant_profile(1.0), q, norm, support=(0.1, 10.0), field_id="x3")
    x = np.array([0.0, 0.0, 1.0])
    for mode in ("analytic", "orbit_fd"):
        assert radial_derivative(group, norm, f, x, mode=mode) == pytest.approx(1.0, rel=1e-9)


def test_gaussian_radial_derivative_matches_profile(r3):
    group, norm = r3
    f = radial_field(gaussian_profile(1.0), norm, support=(1e-6, 30.0), field_id="g")
    x = np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]])
    got = radial_derivative(group, norm, f, x)
    assert np.allclose(got, -math.exp(-0.5), rtol=1e-12)
    got_fd = radial_derivative(group, norm, f, x, mode="orbit_fd")
    assert np.allclose(got_fd, -math.exp(-0.5), rtol=1e-9)


def test_radial_derivative_rejects_origin(r3):
    group, norm = r3
    f = radial_field(gaussian_profile(1.0), norm, support=(1e-6, 30.0))
    with pytest.raises(SingularPointError):
        radial_derivative(group, norm, f, np.zeros(3))


def test_quasi_radial_derivatives_are_profile_stacks():
    group = parse_group("aniso:1,2")
    norm = default_norm(group)
    f = _bump(norm)
    rng = np.random.default_rng(5)
    x = rng.uniform(-2, 2, size=(50, 2))
    r = np.asarray(norm(x))
    keep = (r > 0.4) & (r < 4.0)
    x, r = x[keep], r[keep]
    for k in (1, 2, 3):
        rk = nth_radial_derivative(group, norm, f, k)
        assert np.allclose(rk.values(x), f.profile.derivatives(r, k)[k], rtol=1e-13)


@pytest.mark.parametrize("k,tol", [(1, 1e-11), (2, 1e-9), (3, 1e-6)])
def test_product_expansion_matches_orbit_fd(heis, k, tol):
    group, norm = heis
    q = PolyFactor(exponents=((1, 0, 0), (0, 1, 1)), coeffs=(0.7, -0.4))
    f = product_field(
        log_gaussian_profile(1.0, 0.0, 0.5), q, norm, support=(0.05, 20.0), field_id="pq"
    )
    rng = np.random.default_rng(6)
    x = rng.uniform(-1.5, 1.5, size=(40, 3))
    r = np.asarray(norm(x))
    x = x[(r > 0.5) & (r < 2.0)]
    exact = nth_radial_derivative(group, norm, f, k, mode="analytic").values(x)
    fd = nth_radial_derivative(group, norm, f, k, mode="orbit_fd").values(x)
    scale = np.max(np.abs(exact))
    assert np.max(np.abs(exact - fd)) <= tol * scale


def test_radial_derivative_is_homogeneous_of_order_minus_one(heis):
    group, norm = heis
    f = _bump(norm)
    lam = 1.7
    rng = np.random.default_rng(7)
    x = rng.uniform(-1.2, 1.2, size=(30, 3))
    r = np.asarray(norm(x))
    x = x[(r > 0.5) & (r < 2.0)]
    rf = nth_radial_derivative(group, norm, f, 1)
    # R applied after dilation picks up one inverse power of lambda:
    # (R (f o D_lam))(x) = lam * (R f)(D_lam x)
    from hgineq import dilate, dilate_field

    lhs = nth_radial_derivative(group, norm, dilate_field(group, f, lam), 1).values(x)
    rhs = lam * rf.values(dilate(group, lam, x))
    assert np.allclose(lhs, rhs, rtol=1e-6, atol=1e-12)


def test_analytic_mode_refuses_opaque_fields(r3):
    group, norm = r3
    f = generic_field(lambda x: np.exp(-np.sum(x**2, axis=-1)), (0.1, 5.0), norm=norm)
    with pytest.raises(MissingDerivativeError):
        nth_radial_derivative(group, norm, f, 2, mode="analytic")
    # k = 1 succeeds once a gradient is supplied
    g = generic_field(
        lambda x: np.exp(-np.sum(x**2, axis=-1)),
        (0.1, 5.0),
        norm=norm,
        gradient=lambda x: -2 * x * np.exp(-np.sum(x**2, axis=-1))[..., None],
    )
    rf = nth_radial_derivative(group, norm, g, 1, mode="analytic")
    x = np.array([[0.5, 0.5, 0.5]])
    r = np.linalg.norm(x, axis=-1)
    assert np.allclose(rf.values(x), -2 * r * np.exp(-(r**2)), rtol=1e-12)


def test_order_validation(r3):
    group, norm = r3
    f = _bump(norm)
    with pytest.raises(InvalidParameterError):
        nth_radial_derivative(group, norm, f, -1)
    with pytest.raises(InvalidParameterError):
        nth_radial_derivative(group, norm, f, 2.5)
    g = generic_field(f.values, f.support, norm=norm)
    with pytest.raises(InvalidParameterError):
        nth_radial_derivative(group, norm, g, 99, mode="orbit_fd")
    assert nth_radial_derivative(group, norm, f, 0) is f


# -- haar integral ------------------------------------------------------------


def test_haar_integral_gaussian_plane(config):
    group = parse_group("r:2")
    val, err = haar_integral(
        group, lambda x: np.exp(-np.sum(x**2, axis=-1)), config=config, box=[6.0, 6.0]
    )
    assert val == pytest.approx(math.pi, rel=1e-8)
    assert err < 1e-6


def test_haar_integral_annulus_domain(config):
    group = parse_group("r:2")
    norm = default_norm(group)
    ind = lambda x: (np.asarray(norm(x)) <= 1.0).astype(float)
    val, _ = haar_integral(group, ind, config=config, annulus=(0.5, 1.0), norm=norm)
    assert val == pytest.approx(math.pi, rel=1e-2)


def test_haar_integral_needs_a_domain(config):
    group = parse_group("r:2")
    with pytest.raises(UnsupportedDomainError):
        haar_integral(group, lambda x: x[..., 0], config=config)


# -- sphere measure -----------------------------------------------------------

SIGMA_CASES = [
    ("r:2", 2 * math.pi, 1e-6),
    ("r:3", 4 * math.pi, 1e-5),
    ("heis1", math.pi**2 / 2, 1e-4),
    # (sum |x_i|^(2M/w_i))^(1/2M) unit sphere, weights (1, 2):
    # |sigma| = 3 B(1/4, 3/2) by direct reduction to a Beta integral
    ("aniso:1,2", 10.488230217201943, 1e-5),
]


@pytest.mark.parametrize("name,expected,rtol", SIGMA_CASES)
def test_sphere_measure_reference_values(name, expected, rtol, config):
    group = parse_group(name)
    norm = default_norm(group)
    sm = sphere_measure(group, norm, config=config)
    assert sm.value == pytest.approx(expected, rel=rtol)
    assert sm.error < 1e-3 * expected


def test_sphere_measure_annulus_invariance(config):
    group = parse_group("heis1")
    norm = default_norm(group)
    a = sphere_measure(group, norm, annulus=(1.0, 2.0), config=config)
    b = sphere_measure(group, norm, annulus=(0.5, 3.0), config=config)
    assert a.value == pytest.approx(b.value, rel=1e-4)


def test_sphere_measure_method_crosscheck(config):
    group = parse_group("r:2")
    norm = default_norm(group)
    smooth = sphere_measure(group, norm, config=config, method="smooth")
    rough = sphere_measure(group, norm, config=config, method="indicator")
    mc = sphere_measure(group, norm, config=config, method="mc")
    assert rough.value == pytest.approx(smooth.value, rel=2e-2)
    assert abs(mc.value - smooth.value) < 5 * max(mc.error, 1e-3)


def test_sphere_measure_memoization(config):
    from hgineq import clear_sphere_measure_cache

    clear_sphere_measure_cache()
    group = parse_group("r:3")
    norm = default_norm(group)
    first = sphere_measure(group, norm, config=config)
    assert sphere_measure(group, norm, config=config) is first
    assert len(_SIGMA_CACHE) == 1


def test_sphere_measure_file_cache(tmp_path, config):
    from hgineq import clear_sphere_measure_cache

    clear_sphere_measure_cache()
    group = parse_group("r:2")
    norm = default_norm(group)
    first = sphere_measure(group, norm, config=config, cache_dir=str(tmp_path))
    assert list(tmp_path.glob("sigma_*.json"))
    _SIGMA_CACHE.clear()
    again = sphere_measure(group, norm, config=config, cache_dir=str(tmp_path))
    assert again.value == first.value and again is not first


def test_sphere_measure_validates_annulus(config):
    group = parse_group("r:2")
    norm = default_norm(group)
    with pytest.raises(InvalidParameterError):
        sphere_measure(group, norm, annulus=(2.0, 1.0), config=config)
    with pytest.raises(InvalidParameterError):
        sphere_measure(group, norm, config=config, method="bogus")


# -- weighted norms -----------------------------------------------------------


def test_weighted_norm_gaussian_oracle(r3, config):
    # closed forms for exp(-r^2/2) on R^3 against Gamma-function values
    group, norm = r3
    f = radial_field(gaussian_profile(1.0), norm, support=(1e-6, 30.0), field_id="g")
    val, _ = weighted_lp_norm(group, norm, f, 1.0, 2.0, config=config)
    assert val**2 == pytest.approx(2 * math.pi**1.5, rel=1e-6)
    val, _ = weighted_lp_norm(group, norm, f, -1.0, 2.0, config=config)
    assert val**2 == pytest.approx(1.5 * math.pi**1.5, rel=1e-6)


def test_weighted_norm_validation(r3, config):
    group, norm = r3
    # supports touching the origin are rejected at the field layer already
    with pytest.raises(InvalidParameterError):
        radial_field(gaussian_profile(1.0), norm, support=(0.0, 30.0), field_id="g")
    ok = radial_field(gaussian_profile(1.0), norm, support=(1e-6, 30.0))
    with pytest.raises(InvalidParameterError):
        weighted_lp_norm(group, norm, ok, 1.0, 0.5, config=config)


def test_weighted_norm_zero_field(r3, config):
    group, norm = r3
    f = radial_field(constant_profile(0.0), norm, support=(0.5, 2.0), field_id="z")
    val, err = weighted_lp_norm(group, norm, f, 0.5, 2.0, config=config)
    assert val == 0.0 and err >= 0.0


def test_weighted_norm_polar_vs_cartesian(heis, config):
    # an opaque field is sampled on the polar grid of radial and sphere
    # nodes; on a quasi-radial field that agrees with the exact
    # factorization through sigma up to sigma's own error
    group, norm = heis
    f = _bump(norm, 0.5, 4.0)
    exact, _ = weighted_lp_norm(group, norm, f, 0.5, 2.0, config)
    opaque = generic_field(f.values, f.support, norm=norm, field_id="opaque")
    sampled, _ = weighted_lp_norm(group, norm, opaque, 0.5, 2.0, config)
    assert sampled == pytest.approx(exact, rel=1e-5)


def test_weighted_combo_cross_terms(r3, config):
    # || f/N - R f ||_2^2 expands into three single-weight pieces
    group, norm = r3
    f = radial_field(gaussian_profile(1.0), norm, support=(1e-6, 30.0), field_id="g")
    combo, _ = weighted_combo_l2(group, norm, f, [(1.0, 0, 1.0), (-1.0, 1, 0.0)], config=config)
    a, _ = weighted_lp_norm(group, norm, f, 1.0, 2.0, config=config)
    b, _ = weighted_lp_norm(group, norm, nth_radial_derivative(group, norm, f, 1), 0.0, 2.0, config=config)
    # cross term: -2 int (f/r)(f') r^2 dr * sigma = +2 * (1/2) int f^2 r dr... use
    # the Gaussian closed form directly: combo^2 = 2 pi^{3/2}(1 + 3/4 + 1)
    assert combo**2 == pytest.approx(a**2 + b**2 + 2 * math.pi**1.5, rel=1e-6)
    assert b**2 == pytest.approx(1.5 * math.pi**1.5, rel=1e-6)


def test_weighted_combo_requires_terms(r3, config):
    group, norm = r3
    f = _bump(norm)
    with pytest.raises(InvalidParameterError):
        weighted_combo_l2(group, norm, f, [], config=config)


def test_weighted_combo_fast_vs_generic(heis):
    group, norm = heis
    f = _bump(norm, 0.5, 4.0)
    cfg = QuadratureConfig(box_points=128)
    fast, _ = weighted_combo_l2(group, norm, f, [(1.0, 1, 0.5), (0.3, 0, 1.5)], cfg)
    slow, _ = weighted_combo_l2(group, norm, f, [(1.0, 1, 0.5), (0.3, 0, 1.5)], cfg, mode="orbit_fd")
    assert slow == pytest.approx(fast, rel=0.05)
