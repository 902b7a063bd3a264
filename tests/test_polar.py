"""The polar route: sphere rules on ``{N = 1}`` and the weighted norms of
fields that are not quasi-radial in the active norm."""

import itertools
import math

import numpy as np
import pytest
from scipy.special import gamma

from hgineq import (
    CorpusSpec,
    QuadratureConfig,
    annulus_cutoff,
    default_norm,
    dilate_field,
    gaussian_profile,
    generic_field,
    integrate_box,
    l2_identity_report,
    log_gaussian_profile,
    make_corpus,
    make_norm,
    nth_radial_derivative,
    parse_group,
    radial_field,
    sphere_measure,
    weighted_lp_norm,
)
from hgineq.fields import orbit_profiles
from hgineq.quadrature import sphere_rule
from conftest import catalog_pairs, sample_points

GROUPS = ("r:3", "heis1", "aniso:1,2")


def _closed_sigma(group, norm):
    """``sigma = Q |{N <= 1}|`` where the unit ball's volume is elementary."""
    w = group.weight_array()
    if norm.kind == "max_scaled":
        return w.sum() * 2.0**group.dim
    if norm.kind == "koranyi":
        return 0.5 * math.pi**2
    if np.all(w == 1.0):  # euclidean, and aniso_power on an isotropic group
        return group.dim * math.pi ** (group.dim / 2) / gamma(group.dim / 2 + 1)
    return None


def _product_fields(name, count=4, seed=0):
    group = parse_group(name)
    norm = default_norm(group)
    return group, norm, make_corpus(group, norm, CorpusSpec(count=count, seed=seed,
                                                            radial_fraction=0.0))


# -- sphere rules ----------------------------------------------------------------


def test_sphere_rule_mass_is_the_sphere_measure():
    checked = 0
    for group, norm in catalog_pairs():
        _, sigma = sphere_rule(norm, 32)
        exact = _closed_sigma(group, norm)
        if exact is not None:
            assert abs(sigma.sum() - exact) <= 1e-12 * exact, (group.name, norm.kind)
            checked += 1
        else:
            sm = sphere_measure(group, norm)
            assert abs(sigma.sum() - sm.value) <= sm.error, (group.name, norm.kind)
    assert checked == 9


def test_sphere_rule_nodes_lie_on_the_sphere_and_odd_moments_vanish(config):
    exponents = [e for e in itertools.product(range(4), repeat=3)]
    for group, norm in catalog_pairs():
        nodes, sigma = sphere_rule(norm, config.sphere_order)
        assert np.max(np.abs(norm(nodes) - 1.0)) <= 1e-14
        assert np.all(sigma > 0)
        for e in {e[: group.dim] for e in exponents}:
            if any(v % 2 for v in e):
                moment = sigma @ np.prod(nodes ** np.asarray(e), axis=-1)
                assert abs(moment) <= 1e-14 * sigma.sum(), (group.name, norm.kind, e)


def test_sphere_order_follows_the_radial_order():
    assert QuadratureConfig().sphere_order == 12
    assert QuadratureConfig(radial_order=64).sphere_order == 24
    assert QuadratureConfig(radial_order=2).sphere_order == 2


# -- product fields on the polar grid ----------------------------------------------


def test_radial_derivatives_of_product_fields_stay_products(heis):
    group, norm = heis
    f = _product_fields("heis1", count=1)[2][0]
    rf = nth_radial_derivative(group, norm, f, 1)
    r2f = nth_radial_derivative(group, norm, rf, 1)
    assert (rf.structure, rf.order, r2f.structure, r2f.order) == ("product", 1, "product", 2)
    x = sample_points(group, np.random.default_rng(3), 30, r_lo=0.3, r_hi=4.0)
    direct = nth_radial_derivative(group, norm, f, 2).values(x)
    assert np.allclose(r2f.values(x), direct, rtol=1e-12, atol=1e-12)
    fd = nth_radial_derivative(group, norm, f, 2, mode="orbit_fd").values(x)
    assert np.max(np.abs(direct - fd)) <= 1e-5 * np.max(np.abs(direct))
    # on the orbit through w, R^k f(D_r w) = sum_m c_m w^e_m H_m(r)
    r = np.array([0.7, 1.3, 2.9])
    w = x[:1] / np.asarray(norm(x[:1]))[:, None] ** group.weight_array()
    on_orbit = r2f.values(r[:, None] ** group.weight_array() * w)
    mono = f.poly.monomials(w)[0] * np.asarray(f.poly.coeffs)
    degs = f.poly.weighted_degrees(group.weights)
    assert np.allclose(on_orbit, orbit_profiles(f.profile, degs, 2, r) @ mono, rtol=1e-12)
    # dilations commute with R up to the factor lam^k
    lam = 1.7
    lhs = dilate_field(group, r2f, lam).values(x)
    rhs = nth_radial_derivative(group, norm, dilate_field(group, f, lam), 2).values(x)
    assert np.allclose(lhs, rhs / lam**2, rtol=1e-12, atol=1e-12)


def test_error_estimate_bounds_the_error_against_the_doubled_rule(config):
    doubled = config.doubled()
    for name in GROUPS:
        group, norm, fields = _product_fields(name)
        for f in fields:
            for k, weight, p in ((0, 1.0, 2.0), (1, 0.0, 1.5), (1, 0.5, 3.0), (2, 0.0, 2.0)):
                fk = nth_radial_derivative(group, norm, f, k)
                value, err = weighted_lp_norm(group, norm, fk, weight, p, config)
                fine, _ = weighted_lp_norm(group, norm, fk, weight, p, doubled)
                assert abs(value - fine) <= 2.0 * err, (name, f.field_id, k, weight, p)


def test_product_norm_matches_box_quadrature(r3):
    group, norm = r3
    f = _product_fields("r:3", count=1)[2][0]
    value, err = weighted_lp_norm(group, norm, f, 0.5, 2.0)

    def integrand(x):
        r = np.asarray(norm(x))
        out = np.zeros(r.shape)
        inside = r > 0
        out[inside] = np.abs(f.values(x[inside])) ** 2 / r[inside]
        return out

    boxed, boxed_err = integrate_box(integrand, norm.bounding_halfwidths(f.support[1]),
                                     QuadratureConfig(box_points=128))
    assert abs(value**2 - boxed) <= boxed_err
    assert value**2 == pytest.approx(boxed, rel=1e-3)
    assert err / value <= 1e-6


def test_l2_identity_on_the_field_that_broke_box_quadrature():
    # corpus seed 87, aniso:1,2: box quadrature put lhs 8.606 against
    # rhs 6.607 with a margin of 1.157 here
    group, norm, fields = _product_fields("aniso:1,2", count=6, seed=87)
    f = fields[5]
    assert f.field_id == "poly-87-005"
    rep = l2_identity_report(group, norm, f, alpha=0.0, k=1)
    assert rep.satisfied
    assert abs(rep.lhs - rep.rhs) / max(abs(rep.lhs), abs(rep.rhs)) <= 1e-6


def test_l2_identity_residuals_on_product_fields():
    # acceptance criterion 05 on product fields, at its resolution
    cfg = QuadratureConfig(radial_order=64, radial_panels=12)
    for name in GROUPS:
        group, norm, fields = _product_fields(name)
        for k in (1, 2, 3):
            for alpha in (-1.0, 0.0, 1.0):
                for f in fields:
                    rep = l2_identity_report(group, norm, f, alpha=alpha, k=k, config=cfg,
                                             mode="analytic")
                    rel = abs(rep.lhs - rep.rhs) / max(abs(rep.lhs), abs(rep.rhs))
                    assert rel <= 1e-6, (name, k, alpha, f.field_id, rel)


# -- opaque fields -------------------------------------------------------------------


def test_support_in_another_norm_is_covered(heis):
    # ||f||_2 does not depend on the norm; the field's support is a
    # Koranyi annulus, integrated in aniso_power polar coordinates, where
    # it reaches beyond N = 4
    group, koranyi = heis
    aniso = make_norm(group, "aniso")
    prof = log_gaussian_profile(1.0, 0.0, 0.5) * annulus_cutoff(0.5, 1.0, 2.0, 4.0)
    f = radial_field(prof, koranyi, support=(0.5, 4.0), field_id="bump")
    exact, exact_err = weighted_lp_norm(group, koranyi, f, 0.0, 2.0)
    value, err = weighted_lp_norm(group, aniso, f, 0.0, 2.0)
    assert abs(value - exact) <= err + exact_err
    assert value == pytest.approx(exact, rel=1e-2)


def test_support_touching_the_origin(r3):
    group, norm = r3
    g = radial_field(gaussian_profile(1.0), norm, support=(1e-6, 30.0))
    opaque = generic_field(g.values, (0.0, 30.0), norm=norm, field_id="opaque")
    for weight, exact in ((0.0, math.pi**1.5), (-1.0, 1.5 * math.pi**1.5)):
        value, _ = weighted_lp_norm(group, norm, opaque, weight, 2.0)
        assert value**2 == pytest.approx(exact, rel=1e-12)
