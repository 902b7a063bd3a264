"""The polar route: sphere rules on ``{N = 1}`` and the weighted norms of
fields that are not quasi-radial in the active norm."""

import contextlib
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gamma

from hgineq import (
    DEFAULT_CONFIG,
    CorpusSpec,
    DegenerateConstantError,
    HgineqError,
    InvalidParameterError,
    QuadratureConfig,
    annulus_cutoff,
    ckn_report,
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
    weighted_combo_l2,
    weighted_lp_norm,
)
from hgineq import calculus
from hgineq.calculus import _BLOCK, _SAMPLES, _grid_values, _on_orbits
from hgineq.calculus import (
    _INTEGRANDS,
    _ORBIT_FD_STENCILS,
    _compatible,
    _one_node_pass,
    _orbit_fd,
    _polar_integral,
    _radial_range,
    _samples,
)
from hgineq.extremizers import ExtremizerFamily, extremizer_field
from hgineq.fields import orbit_profiles
from hgineq.norms import NORM_KINDS
from hgineq.quadrature import is_radial_node_set, polar_radial_nodes, polar_radial_pair, sphere_rule
from hgineq.reports import CHECKS, evaluate
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


def _opaque(group, norm, seed=3):
    """A product corpus field behind an opaque callable."""
    f = make_corpus(group, norm, CorpusSpec(count=1, seed=seed, radial_fraction=0.0))[0]
    return generic_field(f.values, f.support, norm=norm, field_id=f.field_id + "|generic")


def _grid_points(group, r, nodes):
    return (r[:, None, None] ** group.weight_array() * nodes).reshape(-1, group.dim)


# the two routes sample the base at points that differ in the last bits, and
# a stencil of step h amplifies that by ~1/h^k (h = 1e-4 r at k = 1, 1e-3 r
# above): the largest difference seen is 5e-12, 9e-10 and 5e-8
@pytest.mark.parametrize("k,tol", [(1, 1e-10), (2, 1e-8), (3, 1e-6)])
@pytest.mark.parametrize("name,kind", [(name, None) for name in GROUPS] + [("heis1", "max")])
def test_grid_orbit_fd_matches_the_pointwise_route(name, kind, k, tol, config):
    group = parse_group(name)
    norm = make_norm(group, kind) if kind else default_norm(group)
    fk = nth_radial_derivative(group, norm, _opaque(group, norm), k)
    assert fk.orbit_fd[1:] == (k, norm)
    r, _ = polar_radial_nodes(0.2, 5.0, config.radial_order, config.radial_panels)
    nodes, _ = sphere_rule(norm, config.sphere_order)
    grid = _grid_values(group, norm, fk, r, nodes)
    pointwise = fk.values(_grid_points(group, r, nodes)).reshape(grid.shape)
    assert np.max(np.abs(grid - pointwise)) <= tol * np.max(np.abs(pointwise))


def test_orbit_fd_under_another_norm_takes_the_pointwise_route(heis, config):
    group, koranyi = heis
    mx = make_norm(group, "max")
    fk = nth_radial_derivative(group, koranyi, _opaque(group, koranyi), 1)
    seen = []

    def recording(x):
        seen.append(x.copy())
        return fk.values(x)

    r, _ = polar_radial_nodes(0.2, 10.0, config.radial_order, config.radial_panels)
    nodes, _ = sphere_rule(mx, config.sphere_order)
    grid = _grid_values(group, mx, replace(fk, values=recording), r, nodes)
    np.testing.assert_array_equal(np.concatenate(seen), _grid_points(group, r, nodes))
    np.testing.assert_array_equal(grid.ravel(), np.concatenate([fk.values(x) for x in seen]))


def _counting_opaque(values, support, norm):
    """An opaque field that records how many points each call asks for."""
    calls = []

    def counting(x):
        calls.append(len(x))
        return values(x)

    return generic_field(counting, support, norm=norm), calls


def _grid_total(norm, support, config):
    """Points of the full and the coarse polar grid on ``support``."""
    passes = ((config.radial_order, config.sphere_order),
              (max(2, config.radial_order // 2), max(2, config.sphere_order // 2)))
    return sum(len(polar_radial_nodes(*support, order, config.radial_panels)[0])
               * len(sphere_rule(norm, sphere_order)[0]) for order, sphere_order in passes)


def test_generic_ckn_report_evaluates_the_field_once_per_node_set(r3):
    group, norm = r3
    f = make_corpus(group, norm, CorpusSpec(count=1, seed=3, radial_fraction=0.0))[0]
    opaque, calls = _counting_opaque(f.values, f.support, norm)
    rep = ckn_report(group, norm, opaque, 2.0, 0.0, 1.0)
    assert rep.satisfied
    # norm_lhs and norm_dual share one evaluation on each of the full and
    # the coarse grid; the orbit FD of norm_deriv samples each grid twice
    # at two stencil offsets
    assert sum(calls) == 5 * _grid_total(norm, f.support, DEFAULT_CONFIG)
    assert max(calls) <= _BLOCK


def test_opaque_field_touching_the_origin_is_evaluated_once_per_node_set(r3, config):
    group, norm = r3
    g = radial_field(gaussian_profile(1.0), norm, support=(1e-6, 5.0))
    opaque, calls = _counting_opaque(g.values, (0.0, 5.0), norm)
    first = weighted_lp_norm(group, norm, opaque, 0.0, 2.0, config)
    assert weighted_lp_norm(group, norm, opaque, 0.0, 1.5, config)[0] != first[0]
    # the full and the coarse grid, once each
    assert sum(calls) == _grid_total(norm, (0.0, 5.0), config)
    assert max(calls) <= _BLOCK
    r, wr = polar_radial_nodes(0.0, 5.0, config.radial_order, config.radial_panels)
    assert polar_radial_nodes(0.0, 5.0, config.radial_order, config.radial_panels)[0] is r
    assert not r.flags.writeable and not wr.flags.writeable


def test_blocks_give_the_values_of_one_call(r3, config):
    group, norm = r3
    r, _ = polar_radial_nodes(0.2, 5.0, 2 * config.radial_order, config.radial_panels)
    nodes, _ = sphere_rule(norm, config.sphere_order)
    t = np.stack([0.99 * r, 1.01 * r])  # the shape of a stencil's radii
    assert t.size * len(nodes) > 4 * _BLOCK
    pts = (t[..., None, None] ** group.weight_array() * nodes).reshape(-1, group.dim)
    real = radial_field(gaussian_profile(1.0), norm, support=(0.1, 6.0))
    opaque, calls = _counting_opaque(real.values, real.support, norm)
    blocked = _on_orbits(group, opaque, t, nodes)
    assert len(calls) > 4 and max(calls) <= _BLOCK
    assert blocked.shape == t.shape + (len(nodes),)
    np.testing.assert_array_equal(blocked.ravel(), real.values(pts))
    # complex products round a block's tail elements differently
    product = _opaque(group, norm)
    blocked = _on_orbits(group, product, t, nodes).ravel()
    single = product.values(pts)
    assert np.iscomplexobj(single)
    assert np.max(np.abs(blocked - single)) <= 1e-15 * np.max(np.abs(single))


def _ref_on_orbits(group, f, t, nodes):
    """``_on_orbits`` as first written: each block's points from one broadcast,
    ``(rows, 1, 1) ** w * (S, n)``; the oracle for the column-wise fill."""
    rows = t.reshape(-1, 1, 1)
    step = max(1, _BLOCK // len(nodes))
    blocks = [f.values((rows[i:i + step] ** group.weight_array() * nodes).reshape(-1, group.dim))
              for i in range(0, len(rows), step)]
    return np.concatenate(blocks, axis=None).reshape(t.shape + (len(nodes),))


def _recording(support):
    """A field that keeps a copy of every block of points it is called on."""
    seen = []

    def values(x):
        seen.append(x.copy())
        return np.zeros(len(x))

    return generic_field(values, support), seen


@pytest.mark.parametrize("name", ("r:1", "r:3", "heis1", "aniso:1,2", "aniso:1,1,2"))
def test_orbit_points_match_the_broadcast_oracle(name, config):
    group = parse_group(name)
    norm = default_norm(group)
    nodes, _ = sphere_rule(norm, config.sphere_order)
    r, _ = polar_radial_nodes(0.2, 5.0, config.radial_order, config.radial_panels)
    t = np.stack([0.99 * r, 1.01 * r])
    t[0, 3] = np.nan
    t[1, 5] = 0.0
    for radii in (t, t[:, :1], 1.7 * t[1]):
        got, got_seen = _recording((0.2, 5.0))
        want, want_seen = _recording((0.2, 5.0))
        _on_orbits(group, got, radii, nodes)
        _ref_on_orbits(group, want, radii, nodes)
        assert len(got_seen) == len(want_seen)
        for a, b in zip(got_seen, want_seen):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
    # and the values of an opaque product field, block for block
    opaque = _opaque(group, norm)
    want = _ref_on_orbits(group, opaque, t, nodes)
    got = _on_orbits(group, opaque, t, nodes)
    assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", sorted(_ORBIT_FD_STENCILS))
@pytest.mark.parametrize("name", GROUPS)
def test_blocked_orbit_fd_grid_keeps_the_bits_of_one_stencil(name, k, config):
    group = parse_group(name)
    norm = default_norm(group)
    base = _opaque(group, norm)
    fk = nth_radial_derivative(group, norm, base, k, mode="orbit_fd")
    r, _ = polar_radial_nodes(0.2, 5.0, config.radial_order, config.radial_panels)
    nodes, _ = sphere_rule(norm, config.sphere_order)
    whole = _orbit_fd(k, r, lambda t: _on_orbits(group, base, t, nodes))
    blocked = _grid_values(group, norm, fk, r, nodes)
    assert blocked.dtype == whole.dtype and blocked.shape == whole.shape
    assert blocked.tobytes() == whole.tobytes()


def test_values_that_turn_complex_in_a_later_block_keep_their_imaginary_part(r3, config):
    group, norm = r3
    calls = []

    def values(x):
        calls.append(len(x))
        v = np.exp(-norm(x))
        return v if len(calls) == 1 else v * (1.0 + 0.5j)

    f = generic_field(values, (0.1, 6.0), norm=norm)
    r, _ = polar_radial_nodes(0.2, 5.0, config.radial_order, config.radial_panels)
    nodes, _ = sphere_rule(norm, config.sphere_order)
    got = _on_orbits(group, f, r, nodes)
    first = calls[0] // len(nodes)
    calls.clear()
    want = _ref_on_orbits(group, f, r, nodes)
    assert len(calls) > 2
    assert got.dtype == want.dtype == complex and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert np.all(got[:first].imag == 0) and np.all(got[first:].imag > 0)


def _ref_grid_values(group, norm, f, r, nodes):
    """Grid values as one whole array per field: the product's full matrix
    product, one stencil over all radii, or the opaque samples."""
    if f.structure == "product" and _compatible(f.norm, norm):
        mono = f.poly.monomials(nodes) * np.asarray(f.poly.coeffs)
        degs = f.poly.weighted_degrees(group.weights)
        return orbit_profiles(f.profile, degs, f.order, r) @ mono.T
    if f.orbit_fd is not None and _compatible(f.orbit_fd[2], norm):
        base, k, _ = f.orbit_fd
        return _orbit_fd(k, r, lambda t: _on_orbits(group, base, t, nodes))
    return _samples(group, f, r, nodes)


def _ref_polar_integral(group, norm, f, parts, p, config):
    """``_polar_integral`` off the one-node route, each part's values and
    the integrand formed as whole ``(R, S)`` arrays: the oracle for the
    integrand formed one block of radii at a time."""
    r_lo, r_hi = _radial_range(f, norm)
    a0 = parts[0][2]
    expo = group.homogeneous_dimension - 1.0 - a0 * p

    def one_pass(order, sphere_order):
        r, wr = polar_radial_nodes(r_lo, r_hi, order, config.radial_panels)
        nodes, sigma = sphere_rule(norm, sphere_order)
        column = r[:, None]
        acc = None
        for c, g, a in parts:
            vals = _ref_grid_values(group, norm, g, r, nodes)
            if a != a0:
                vals = column ** (a0 - a) * vals
            if c != 1:
                vals = c * vals
            acc = vals if acc is None else acc + vals
        acc = np.abs(acc) ** p
        return float((wr * r**expo) @ acc @ sigma)

    sphere_order = config.sphere_order
    full = one_pass(config.radial_order, sphere_order)
    coarse = one_pass(max(2, config.radial_order // 2), max(2, sphere_order // 2))
    err = abs(full - coarse) + 4.0 * np.finfo(float).eps * abs(full)
    return max(full, 0.0), err


def _separate_passes(group, norm, f, parts, p, config):
    """The one-node route's full and coarse pass, each a sweep of its own on
    the set :func:`polar_radial_nodes` gives at its order, each part's values
    a fresh evaluation of its profile."""
    r_lo, r_hi = _radial_range(f, norm)
    a0 = parts[0][2]
    expo = group.homogeneous_dimension - 1.0 - a0 * p
    out = []
    for order in (config.radial_order, max(2, config.radial_order // 2)):
        r, wr = polar_radial_nodes(r_lo, r_hi, order, config.radial_panels)
        acc = None
        for c, g, a in parts:
            vals = g.profile.derivatives(r, g.order)[g.order]
            if a != a0:
                vals = r ** (a0 - a) * vals
            if c != 1:
                vals = c * vals
            acc = vals if acc is None else acc + vals
        out.append(float(np.dot(wr, np.abs(acc) ** p * r**expo)))
    return tuple(out)


def _ref_one_node_integral(group, norm, f, parts, p, config):
    """``_polar_integral`` on the one-node route from two separate passes,
    each part's values a fresh evaluation of its profile: the oracle for
    the one-node helper."""
    sm = sphere_measure(group, norm)
    full, coarse = _separate_passes(group, norm, f, parts, p, config)
    err = abs(full - coarse) + 4.0 * np.finfo(float).eps * abs(full)
    full = max(full, 0.0)
    return sm.value * full, sm.value * err + sm.error * full


@pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, QuadratureConfig(radial_order=64, radial_panels=12)])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
@pytest.mark.parametrize("name", GROUPS)
def test_one_node_route_keeps_the_bits_of_one_closure(name, p, cfg):
    group = parse_group(name)
    norm = default_norm(group)
    f = make_corpus(group, norm, CorpusSpec(count=1, seed=7, radial_fraction=1.0))[0]
    rf = [nth_radial_derivative(group, norm, f, k) for k in (1, 2)]
    cases = [
        [(1.0, f, 0.5)],
        [(1.0, rf[0], 0.0)],
        [(1.0, rf[1], -0.5)],
        # the L^2 identity's combinations: parts of other weights and coefficients
        [(1.0, rf[1], 0.0), (-2.0 + 0.5j, rf[0], 1.0), (0.75, f, 2.0)],
        [(1.0 + 0.0j, rf[0], 0.25), (0.5j, f, 1.25)],
    ]
    for parts in cases:
        got = _polar_integral(group, norm, f, parts, p, cfg)
        assert got == _ref_one_node_integral(group, norm, f, parts, p, cfg), parts


def _sweep_cases(group, norm):
    """``(f, parts, p)``: a corpus field, an ``l2-identity`` k = 2 remainder
    with a complex coefficient, a support on the origin, and the deepest
    default scan carrier."""
    q = group.homogeneous_dimension
    f = make_corpus(group, norm, CorpusSpec(count=1, seed=7, radial_fraction=1.0))[0]
    rf = [nth_radial_derivative(group, norm, f, k) for k in (1, 2)]
    alpha = 0.5
    c = 0.5 * (q - 2.0 * (1.0 + alpha)) * (1.0 + 0.25j)
    # the one-node parts of an integral over a support that touches the origin
    g = radial_field(gaussian_profile(1.0), norm, support=(1e-6, 5.0))
    origin = generic_field(g.values, (0.0, 5.0), norm=norm)
    family = ExtremizerFamily(p=2.0, alpha=0.0, beta=1.0, eps=1e-56, r_out=1e56)
    scan = extremizer_field(group, norm, family)
    return [
        (f, [(1.0, f, 0.5)], 3.0),
        (f, [(1.0, rf[1], alpha), (c, rf[0], 1.0 + alpha)], 2.0),
        (origin, [(1.0, g, -0.5)], 1.5),
        (scan, [(1.0, nth_radial_derivative(group, norm, scan, 1), 0.0)], 2.0),
    ]


@pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, QuadratureConfig(radial_order=64, radial_panels=12)])
@pytest.mark.parametrize("name", GROUPS)
def test_one_sweep_gives_the_floats_of_two_separate_passes(name, cfg):
    group = parse_group(name)
    norm = default_norm(group)
    for f, parts, p in _sweep_cases(group, norm):
        r_lo, r_hi = _radial_range(f, norm)
        sets = polar_radial_pair(r_lo, r_hi, cfg.radial_order, cfg.radial_panels)
        (pair, _), (full, _), (coarse, _) = sets
        # both sets are registered slices of the one stored pair
        assert all(is_radial_node_set(r) for r in (pair, full, coarse))
        assert np.shares_memory(full, pair) and np.shares_memory(coarse, pair)
        assert len(full) + len(coarse) == len(pair)
        if f.support[1] == 2e56:
            assert len(full) > 10_000  # threaded ddot
        a0 = parts[0][2]
        expo = group.homogeneous_dimension - 1.0 - a0 * p
        got = _one_node_pass(parts, sets, a0, p, expo)
        assert got == _separate_passes(group, norm, f, parts, p, cfg), parts


@pytest.mark.parametrize("name", GROUPS)
def test_blocked_integrand_keeps_the_bits_of_whole_arrays(name, config):
    group = parse_group(name)
    norm = default_norm(group)
    f = _product_fields(name, count=1)[2][0]
    opaque = _opaque(group, norm)
    fd = [nth_radial_derivative(group, norm, opaque, k, mode="orbit_fd") for k in (1, 2)]
    rf = [nth_radial_derivative(group, norm, f, k) for k in (1, 2)]
    cases = [
        ([(1.0, f, 0.5)], 2.0),
        ([(1.0, rf[1], 0.0)], 1.5),
        ([(1.0, opaque, 0.25)], 3.0),
        ([(1.0, fd[0], 0.0)], 2.0),
        ([(1.0, fd[1], -0.5)], 2.0),
        # the L^2 identity's combinations: parts of other weights and coefficients
        ([(1.0, rf[1], 0.0), (-2.0 + 0.5j, rf[0], 1.0), (0.75, f, 2.0)], 2.0),
        ([(1.0, fd[1], 0.0), (-2.0, fd[0], 1.0), (0.5j, opaque, 2.0)], 2.0),
    ]
    for parts, p in cases:
        got = _polar_integral(group, norm, opaque, parts, p, config)
        assert got == _ref_polar_integral(group, norm, opaque, parts, p, config), (parts, p)


def test_opaque_report_peak_allocation_stays_small(r3):
    # one call on the whole stencil grid (2 x 256 x 288 points) peaked at 29 MB
    group, norm = r3
    opaque = _opaque(group, norm, seed=5)
    tracemalloc.start()
    try:
        ckn_report(group, norm, opaque, 2.0, 0.0, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6


def test_sample_cache_stays_bounded_and_read_only(r3, config):
    group, norm = r3
    f = _opaque(group, norm)
    for i in range(200):
        g = generic_field(f.values, (0.2 + 0.001 * i, 5.0), norm=norm)
        weighted_lp_norm(group, norm, g, 0.0, 2.0, config)
    assert len(_SAMPLES) <= _SAMPLES.size
    for entry in _SAMPLES.values():
        with pytest.raises(ValueError):
            entry[-1][0, 0] = 0.0


# -- integrand memo --------------------------------------------------------------


def _counting_grids(monkeypatch):
    """``(field id, radial nodes, sphere nodes)`` of every grid
    ``_grid_blocks`` builds from now on, with the memos emptied."""
    calculus._NORMS.clear()
    _INTEGRANDS.clear()
    built = []
    grid_blocks = calculus._grid_blocks

    def counting(group, norm, f, r, nodes, blocks):
        built.append((f.field_id, len(r), len(nodes)))
        return grid_blocks(group, norm, f, r, nodes, blocks)

    monkeypatch.setattr(calculus, "_grid_blocks", counting)
    return built


def test_a_product_ckn_report_forms_each_grid_once(r3, monkeypatch):
    group, norm = r3
    f = make_corpus(group, norm, CorpusSpec(count=1, seed=3, radial_fraction=0.0))[0]
    built = _counting_grids(monkeypatch)
    ckn_report(group, norm, f, 2.0, 0.5, 1.0)
    # norm_lhs and norm_dual weigh one |f|^p: R f and f, on the full and the coarse set
    assert len(built) == len(set(built)) == 4


@pytest.mark.parametrize("mode", ["auto", "orbit_fd"])
def test_a_hardy_sweep_at_one_p_forms_each_grid_once(r3, mode, monkeypatch):
    group, norm = r3
    f = make_corpus(group, norm, CorpusSpec(count=1, seed=3, radial_fraction=0.0))[0]
    built = _counting_grids(monkeypatch)
    for alpha in (-0.5, 0.0, 0.25, 0.5):
        evaluate("hardy", group, norm, f, {"p": 1.5, "alpha": alpha}, mode=mode)
    assert len(built) == len(set(built)) == 4


def _integrand_cases(case):
    """Two norms of one field whose integrands differ in one input of the
    memo's key: p, the derivative order (on the one-node route and under
    orbit finite differences), the radial node set, the sphere rule or the
    coefficient of a one-part combination."""
    group = parse_group("r:3")
    norm = default_norm(group)
    radial = make_corpus(group, norm, CorpusSpec(count=1, seed=3, radial_fraction=1.0))[0]
    product = make_corpus(group, norm, CorpusSpec(count=1, seed=3, radial_fraction=0.0))[0]
    opaque = generic_field(product.values, product.support)  # its support in either norm
    if case == "p":
        return [lambda p=p: weighted_lp_norm(group, norm, product, 0.5, p) for p in (2.0, 3.0)]
    if case in ("k", "orbit k"):
        f, mode = (radial, "auto") if case == "k" else (opaque, "orbit_fd")
        return [lambda k=k: weighted_lp_norm(group, norm, nth_radial_derivative(
            group, norm, f, k, mode=mode), 0.5, 2.0) for k in (1, 2)]
    if case == "nodes":
        return [lambda cfg=cfg: weighted_lp_norm(group, norm, radial, 0.5, 2.0, cfg)
                for cfg in (DEFAULT_CONFIG, QuadratureConfig(radial_order=24))]
    if case == "sphere":
        return [lambda kind=kind: weighted_lp_norm(group, make_norm(group, kind), opaque, 0.5, 2.0)
                for kind in ("euclid", "max")]
    assert case == "coefficient"
    return [lambda c=c: weighted_combo_l2(group, norm, radial, [(c, 1, 0.5)])
            for c in (1.0, 0.5 + 0.5j)]


@pytest.mark.parametrize("case", ["p", "k", "orbit k", "nodes", "sphere", "coefficient"])
def test_integrand_memo_keeps_apart_what_changes_the_integrand(case):
    fresh = []
    for norm_of in _integrand_cases(case):
        calculus._NORMS.clear()
        _INTEGRANDS.clear()
        fresh.append(norm_of())
    assert fresh[0][0] != fresh[1][0]
    calculus._NORMS.clear()
    _INTEGRANDS.clear()
    assert [norm_of() for norm_of in _integrand_cases(case)] == fresh


def test_integrand_memo_stays_bounded_and_read_only(r3, config):
    group, norm = r3
    f = _opaque(group, norm)
    radial = make_corpus(group, norm, CorpusSpec(count=1, seed=3, radial_fraction=1.0))[0]
    for i in range(100):
        support = (0.2 + 0.001 * i, 5.0)  # new node sets each time
        for g in (generic_field(f.values, support, norm=norm),
                  radial_field(radial.profile, norm, support)):
            weighted_lp_norm(group, norm, g, 0.0, 2.0, config)
    assert len(_INTEGRANDS) <= _INTEGRANDS.size
    for key, (held, integrand) in _INTEGRANDS.items():
        assert tuple(map(id, held[1:])) == key[-2:]  # the node arrays keyed on are held
        with pytest.raises(ValueError):
            integrand[0] = 0.0


def _accepted_pairs():
    for name in ("r:1", "r:2", *GROUPS):
        for kind in NORM_KINDS:
            with contextlib.suppress(HgineqError):
                yield name, make_norm(parse_group(name), kind).kind


@pytest.mark.parametrize("name,kind", list(_accepted_pairs()))
def test_every_check_runs_on_a_product_and_an_opaque_field(name, kind):
    """Every check id on both polar-route field kinds, for every norm the
    group accepts; a point the check refuses is skipped, as ``verify`` does."""
    group = parse_group(name)
    norm = make_norm(group, kind)
    product = make_corpus(group, norm, CorpusSpec(count=1, seed=3, radial_fraction=0.0))[0]
    point = {"p": 2.0, "alpha": 0.25, "beta": 0.5, "theta": 0.75, "k": 1, "m": 1}
    for f in (product, _opaque(group, norm)):
        ran = set()
        for check_id in CHECKS:
            try:
                rep = evaluate(check_id, group, norm, f, point, QuadratureConfig(radial_order=16))
            except (DegenerateConstantError, InvalidParameterError):
                continue
            assert rep.satisfied, (check_id, f.field_id)
            ran.add(check_id)
        assert {"ckn", "hardy", "l2-identity"} <= ran, f.field_id
