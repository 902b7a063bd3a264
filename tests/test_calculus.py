import math

import numpy as np
import pytest

from hgineq import (
    CorpusSpec,
    DegenerateConstantError,
    GroupSpec,
    IncompatibleNormError,
    InvalidParameterError,
    MissingDerivativeError,
    PolyFactor,
    QuadratureConfig,
    RadialProfile,
    SingularPointError,
    SingularSupportError,
    annulus_cutoff,
    clear_caches,
    clear_sphere_measure_cache,
    constant_profile,
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
    product_field,
    radial_derivative,
    radial_field,
    render_json,
    sharpness_scan,
    sphere_measure,
    weighted_combo_l2,
    weighted_lp_norm,
)
from hgineq import calculus, profiles, reports
from hgineq.io import render_document
from hgineq.calculus import _STACKS, _profile_stack
from hgineq.norms import QuasiNormSpec
from hgineq.quadrature import radial_log_nodes
from hgineq.reports import evaluate
from conftest import catalog_pairs


def _bump(norm, lo=0.2, hi=5.0, field_id="bump"):
    prof = log_gaussian_profile(1.0, 0.0, 0.5) * annulus_cutoff(lo, 2 * lo, hi / 2, hi)
    return radial_field(prof, norm, support=(lo, hi), field_id=field_id)


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


@pytest.mark.parametrize("order", [True, False])
def test_a_bool_order_is_refused(r3, order):
    group, norm = r3
    with pytest.raises(InvalidParameterError):
        nth_radial_derivative(group, norm, _bump(norm), order)


# -- derived-field memo ---------------------------------------------------------


def test_a_repeated_order_returns_the_kept_field(r3):
    group, norm = r3
    f = _bump(norm)
    fields = [nth_radial_derivative(group, norm, f, k) for k in (1, 2, 1, 2)]
    assert fields[2] is fields[0] and fields[3] is fields[1]
    assert [g.field_id for g in fields[:2]] == ["R^1[bump]", "R^2[bump]"]
    assert [(g.order, g.profile is f.profile) for g in fields[:2]] == [(1, True), (2, True)]


def test_a_repeated_product_order_returns_the_kept_field(r3):
    group, norm = r3
    q = PolyFactor(((1, 0, 0), (0, 2, 0)), (1.0, 0.5j))
    f = product_field(_bump(norm).profile, q, norm, field_id="prod")
    fields = [nth_radial_derivative(group, norm, f, k) for k in (1, 2, 1, 2)]
    assert fields[2] is fields[0] and fields[3] is fields[1]
    assert [(g.field_id, g.order, g.profile is f.profile, g.poly is q) for g in fields[:2]] == [
        ("R^1[prod]", 1, True, True), ("R^2[prod]", 2, True, True)]
    assert nth_radial_derivative(group, norm, fields[0], 1).order == 2


def test_building_a_product_derivative_evaluates_no_profile(r3, monkeypatch):
    group, norm = r3
    f = make_corpus(group, norm, CorpusSpec(count=1, seed=4, radial_fraction=0.0))[0]
    orig, calls = RadialProfile.derivatives, []

    def counting(self, r, order):
        calls.append(order)
        return orig(self, r, order)

    monkeypatch.setattr(RadialProfile, "derivatives", counting)
    built = [product_field(f.profile, f.poly, norm), dilate_field(group, f, 1.3),
             *(nth_radial_derivative(group, norm, f, k) for k in (1, 2, 3))]
    assert [g.order for g in built] == [0, 0, 1, 2, 3] and calls == []


def test_the_memo_keeps_fields_apart(r3):
    group, norm = r3
    f, g = _bump(norm, field_id="f"), _bump(norm, 0.3, 4.0, field_id="g")
    rf, rg = (nth_radial_derivative(group, norm, h, 1) for h in (f, g))
    assert rg is not rf
    assert (rg.field_id, rg.support) == ("R^1[g]", (0.3, 4.0))
    assert weighted_lp_norm(group, norm, rg, 0.0, 2.0) != weighted_lp_norm(
        group, norm, rf, 0.0, 2.0)


def test_the_memo_serves_only_profile_fields_in_their_own_norm(r3):
    group, norm = r3
    cube = make_norm(group, "max")
    calculus._DERIVED.clear()
    f = _bump(norm)
    prod = product_field(f.profile, PolyFactor(((1, 0, 0),), (1.0,)), norm)
    for g in (f, prod):
        kept = [nth_radial_derivative(group, norm, g, 1) for _ in range(2)]
        assert kept[0] is kept[1] and (kept[0].structure, kept[0].order) == (g.structure, 1)
        entry = calculus._DERIVED.hit((id(g), 1))
        assert entry[0] is g and entry[1] is kept[0]
        fd = nth_radial_derivative(group, norm, g, 1, mode="orbit_fd")
        assert fd is not kept[0] and fd.structure == "generic" and fd.orbit_fd == (g, 1, norm)
        other = nth_radial_derivative(group, cube, g, 1)
        assert other is not kept[0] and other.structure == "generic"
    # the other norm and the orbit finite differences were built, not kept
    assert len(calculus._DERIVED) == 2


def test_the_derived_field_memo_stays_bounded_and_rebuilds_the_same_field(r3):
    group, norm = r3
    f = _bump(norm)
    first = nth_radial_derivative(group, norm, f, 2)
    want = weighted_lp_norm(group, norm, first, 0.5, 2.0)
    for i in range(3 * calculus._DERIVED.size):
        nth_radial_derivative(group, norm, _bump(norm, field_id=f"other{i}"), 1 + i % 3)
        assert len(calculus._DERIVED) <= calculus._DERIVED.size
    again = nth_radial_derivative(group, norm, f, 2)
    assert again is not first
    assert (again.field_id, again.support, again.profile.root()) == (
        first.field_id, first.support, first.profile.root())
    calculus._NORMS.clear()
    assert weighted_lp_norm(group, norm, again, 0.5, 2.0) == want
    report = l2_identity_report(group, norm, f, 0.0, 2)
    for i in range(3 * calculus._DERIVED.size):
        nth_radial_derivative(group, norm, _bump(norm, field_id=f"other{i}"), 1)
    calculus._NORMS.clear()
    assert render_json([l2_identity_report(group, norm, f, 0.0, 2)]) == render_json([report])


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


def test_sphere_measure_beyond_dimension_4_is_monte_carlo():
    group = parse_group("r:5")
    sm = sphere_measure(group, default_norm(group))
    assert sm.method == "mc"
    assert abs(sm.value - 8 * math.pi**2 / 3) <= sm.error


def test_sphere_measure_memoization(config):
    from hgineq import clear_sphere_measure_cache

    clear_sphere_measure_cache()
    group = parse_group("r:3")
    norm = default_norm(group)
    first = sphere_measure(group, norm, config=config)
    assert sphere_measure(group, norm, config=config) is first
    # keyed by value: equal objects built anew share the entry
    assert sphere_measure(parse_group("r:3"), default_norm(parse_group("r:3")),
                          config=config) is first
    assert calculus._sphere_measure.cache_info().currsize == 1


def test_sphere_measure_of_close_weights_is_their_own(config):
    near, far = parse_group("aniso:1,2"), parse_group("aniso:1.0000001,2")
    clear_sphere_measure_cache()
    cold = sphere_measure(far, default_norm(far), config=config)
    clear_sphere_measure_cache()
    sphere_measure(near, default_norm(near), config=config)
    assert sphere_measure(far, default_norm(far), config=config) == cold
    assert cold.value != sphere_measure(near, default_norm(near), config=config).value


@pytest.mark.parametrize("group,norm", list(catalog_pairs()),
                         ids=lambda v: getattr(v, "name", getattr(v, "kind", v)))
def test_folded_sphere_measure_keeps_the_full_rule(group, norm, config, monkeypatch):
    clear_sphere_measure_cache()
    folded = sphere_measure(group, norm, config=config)
    monkeypatch.setattr(calculus, "integrate_box",
                        lambda fn, bounds, cfg, even=False: integrate_box(fn, bounds, cfg))
    clear_sphere_measure_cache()
    full = sphere_measure(group, norm, config=config)
    assert folded.value == pytest.approx(full.value, rel=1e-14)
    assert folded.error == pytest.approx(full.error, rel=1e-9)


# smooth sigma's box points per axis: 192 in dimension 3, 384 in dimension 2,
# and half that on the coarse pass; the fold keeps half of each axis rule
FOLDED_ROWS = {2: 192**2 + 96**2, 3: 96**3 + 48**3}


@pytest.mark.parametrize("group,norm", list(catalog_pairs()),
                         ids=lambda v: getattr(v, "name", getattr(v, "kind", v)))
def test_sphere_measure_evaluates_the_norm_on_one_orthant(group, norm, config, monkeypatch):
    rows = []
    call = QuasiNormSpec.__call__

    def counting(self, x):
        rows.append(np.asarray(x).shape[0])
        return call(self, x)

    monkeypatch.setattr(QuasiNormSpec, "__call__", counting)
    clear_sphere_measure_cache()
    sphere_measure(group, norm, config=config)
    assert sum(rows) == FOLDED_ROWS[group.dim]


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
    value, error = weighted_lp_norm(group, norm, ok, 1.0, 1.0, config=config)
    assert value > 0.0 and math.isfinite(error)


def _finite_case(case):
    """A public norm call with one non-finite input: ``(function, args)``."""
    group = parse_group("r:3")
    norm = default_norm(group)
    f = _bump(norm)
    nan, inf = math.nan, math.inf
    lp = {"p inf": (0.0, inf), "weight nan": (nan, 2.0), "weight inf": (inf, 2.0),
          "weight -inf": (-inf, 1.5)}
    combo = {"c nan": (nan, 1, 0.0), "c complex inf": (complex(1.0, inf), 1, 0.0),
             "c complex nan": (complex(nan, 0.0), 0, 1.0), "a inf": (1.0, 1, inf),
             "a nan": (1.0, 0, nan)}
    if case in lp:
        return weighted_lp_norm, (group, norm, f, *lp[case])
    return weighted_combo_l2, (group, norm, f, [(1.0, 0, 1.0), combo[case]])


@pytest.mark.parametrize("case", ["p inf", "weight nan", "weight inf", "weight -inf", "c nan",
                                  "c complex inf", "c complex nan", "a inf", "a nan"])
def test_public_norms_refuse_non_finite_inputs(case):
    fn, args = _finite_case(case)
    with pytest.raises(InvalidParameterError):
        fn(*args)


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
    # profile stacks against orbit finite differences: 2.3e-7 apart here
    group, norm = heis
    f = _bump(norm, 0.5, 4.0)
    terms = [(1.0, 1, 0.5), (0.3, 0, 1.5)]
    fast, _ = weighted_combo_l2(group, norm, f, terms)
    slow, _ = weighted_combo_l2(group, norm, f, terms, mode="orbit_fd")
    assert slow == pytest.approx(fast, rel=3e-6)


def _one_term_fields(group, norm):
    f = _bump(norm, 0.5, 4.0)
    product = make_corpus(group, norm, CorpusSpec(count=1, seed=3, radial_fraction=0.0))[0]
    return f, product, generic_field(f.values, f.support, norm=norm, field_id="opaque")


@pytest.mark.parametrize("index", [0, 1, 2], ids=["radial", "product", "opaque"])
def test_one_term_combo_is_a_weighted_norm(heis, index):
    group, norm = heis
    f = _one_term_fields(group, norm)[index]
    for k, a in ((0, 0.5), (1, -0.25), (2, 1.0)):
        combo, _ = weighted_combo_l2(group, norm, f, [(1.0, k, a)])
        single, _ = weighted_lp_norm(group, norm, nth_radial_derivative(group, norm, f, k),
                                     a, 2.0)
        assert combo == pytest.approx(single, rel=1e-15, abs=0.0)


def _opaque_gaussian(norm):
    return generic_field(lambda x: np.exp(-0.5 * np.sum(x * x, axis=-1)), (0.0, 8.0),
                         norm=norm, field_id="opaque-gauss")


def test_origin_rule_is_one_for_norms_and_combos(r3):
    # an opaque exp(-|x|^2/2) on a support that touches the origin: with no
    # positive weight both routes take the origin panel, otherwise both refuse
    group, norm = r3
    f = _opaque_gaussian(norm)
    combo, _ = weighted_combo_l2(group, norm, f, [(1.0, 1, 0.0), (1.0, 0, 0.0)])
    assert combo**2 == pytest.approx(2.5 * math.pi**1.5 - 4.0 * math.pi, rel=1e-11)
    value, _ = weighted_lp_norm(group, norm, f, 0.0, 2.0)
    assert value**2 == pytest.approx(math.pi**1.5, rel=1e-13)
    with pytest.raises(SingularSupportError):
        weighted_lp_norm(group, norm, f, 0.5, 2.0)
    with pytest.raises(SingularSupportError):
        weighted_combo_l2(group, norm, f, [(1.0, 1, 0.0), (1.0, 0, 0.5)])


# -- stack cache ----------------------------------------------------------------

_PAIRS = ((0.0, 1.0), (0.5, 0.5), (-0.5, 1.0), (1.0, 0.25), (0.25, -0.25))
_ALPHAS = sorted({a for a, _ in _PAIRS})
#: one field's criterion-04 grid plus the L^2 identity at k = 1, 2 (53 points)
_GRID = [
    *[(check, point) for p in (1.5, 2.0, 3.0) for check, point in (
        *[("ckn", {"p": p, "alpha": a, "beta": b}) for a, b in _PAIRS],
        *[(c, {"p": p, "alpha": a}) for c in ("hardy", "hpw1") for a in _ALPHAS],
        *[(c, {"p": p}) for c in ("up1p", "hpw2")],
    )],
    *[("l2-identity", {"alpha": 0.0, "k": k}) for k in (1, 2)],
]
_GRID_ORDERS = (0, 1, 2)


def _corpus_field(group, norm, radial_fraction=1.0):
    """A newly built corpus field, quasi-radial by default: equal values, no
    shared objects."""
    spec = CorpusSpec(count=1, seed=3, radial_fraction=radial_fraction)
    return make_corpus(group, norm, spec)[0]


def _report(check, group, norm, f, point):
    try:
        return render_json([evaluate(check, group, norm, f, point)])
    except (DegenerateConstantError, InvalidParameterError) as exc:
        return repr(exc)


@pytest.mark.parametrize("name", ["r:3", "heis1", "aniso:1,2"])
def test_cached_stacks_give_the_reports_of_a_fresh_field(name):
    group = parse_group(name)
    norm = default_norm(group)
    f = _corpus_field(group, norm)
    assert len(_GRID) == 53
    for check, point in _GRID:
        fresh = _report(check, group, norm, _corpus_field(group, norm), point)
        assert _report(check, group, norm, f, point) == fresh, (check, point)


@pytest.mark.parametrize("name", ["r:3", "heis1", "aniso:1,2"])
def test_cached_stacks_give_the_product_reports_of_a_fresh_field(name):
    group = parse_group(name)
    norm = default_norm(group)
    f = _corpus_field(group, norm, radial_fraction=0.0)
    assert f.structure == "product"
    for check, point in _GRID:
        fresh = _report(check, group, norm, _corpus_field(group, norm, 0.0), point)
        assert _report(check, group, norm, f, point) == fresh, (check, point)


def test_one_fields_grid_evaluates_its_stack_once_per_node_set_and_order(heis, monkeypatch):
    group, norm = heis
    f = _corpus_field(group, norm)
    orig = RadialProfile.derivatives
    calls = []

    def counting(self, r, order):
        if self is f.profile:
            calls.append(order)
        return orig(self, r, order)

    monkeypatch.setattr(RadialProfile, "derivatives", counting)
    for check, point in _GRID:
        _report(check, group, norm, f, point)
    # the full and the coarse radial node set, each at every order asked for
    assert 0 < len(calls) <= 2 * len(_GRID_ORDERS)


def test_lp_norm_error_of_a_huge_field_is_finite(r3):
    group, norm = r3
    # ||f||_1.5^1.5 is about 1e205 at c = 1e136, and value * total_err overflows
    errors = []
    for c in (1.0, 1e136):
        f = radial_field(constant_profile(c), norm, support=(1.0, 2.0))
        value, err = weighted_lp_norm(group, norm, f, 0.0, 1.5)
        assert math.isfinite(err)
        errors.append(err / value)
    assert errors[1] == pytest.approx(errors[0], rel=1e-9)


def test_stack_cache_and_node_memo_stay_bounded(r3, config):
    group, norm = r3
    for i in range(200):
        f = _bump(norm, lo=0.2 + 0.001 * i)  # a new root and new node sets each time
        weighted_lp_norm(group, norm, nth_radial_derivative(group, norm, f, 1), 0.0, 2.0,
                         config)
    assert len(_STACKS) <= _STACKS.size
    assert len(calculus._NORMS) <= calculus._NORMS.size
    info = radial_log_nodes.cache_info()
    assert info.currsize <= info.maxsize


def test_cached_stacks_and_node_sets_are_read_only(r3):
    nodes, weights = radial_log_nodes(0.2, 5.0, 8, 4)
    assert radial_log_nodes(0.2, 5.0, 8, 4)[0] is nodes
    stack = _profile_stack(_bump(r3[1]).profile, nodes, 2)
    for arr in (nodes, weights, stack):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_higher_order_request_recomputes_the_stack(r3):
    prof = _bump(r3[1]).profile
    nodes, _ = radial_log_nodes(0.2, 5.0, 8, 4)
    low = _profile_stack(prof, nodes, 1)
    high = _profile_stack(prof, nodes, 4)
    np.testing.assert_array_equal(high, prof.derivatives(nodes, 4))
    np.testing.assert_array_equal(low, high[:2])
    assert np.shares_memory(_profile_stack(prof, nodes, 2), high)


def test_derivative_chain_shares_its_roots_entry(r3):
    prof = _bump(r3[1]).profile
    second = prof.derivative(1).derivative(1)
    assert second.root() == (prof, 2)
    nodes, _ = radial_log_nodes(0.2, 5.0, 8, 4)
    stack = _profile_stack(prof, nodes, 3)
    got = _profile_stack(second, nodes, 1)
    assert np.shares_memory(got, stack)
    np.testing.assert_array_equal(got, prof.derivative(2).derivatives(nodes, 1))


# -- which norm a field is measured in ---------------------------------------------


def test_a_catalog_name_on_other_weights_is_another_norm():
    """A Gaussian built under ``max`` on a hand-made group named ``r:3`` with
    the weights of ``heis1`` is not quasi-radial in ``r:3``'s ``max`` norm:
    it measures as the same values wrapped as an opaque field."""
    fake = GroupSpec("r:3", (1, 1, 2))
    f = radial_field(gaussian_profile(), make_norm(fake, "max"), support=(0.2, 5.0))
    group = parse_group("r:3")
    norm = make_norm(group, "max")
    value, error = weighted_lp_norm(group, norm, f, 0.0, 2.0)
    opaque, opaque_error = weighted_lp_norm(group, norm, generic_field(f.values, f.support),
                                            0.0, 2.0)
    assert abs(value - opaque) <= error + opaque_error


def test_a_norm_is_integrated_only_on_its_own_group():
    """A Gaussian under ``max`` on ``aniso:1,1,1.5`` integrated on ``r:3``
    read ||f||_2 = 3.9147 and sigma 34.58, without complaint.  On its own
    group sigma is Q 2^n = 28 and ||f||_2^2 = sigma Gamma(Q/2) / 2."""
    own = parse_group("aniso:1,1,1.5")
    norm = make_norm(own, "max")
    f = radial_field(gaussian_profile(), norm, support=(1e-6, 30.0))
    other = parse_group("r:3")
    with pytest.raises(IncompatibleNormError):
        weighted_lp_norm(other, norm, f, 0.0, 2.0)
    with pytest.raises(IncompatibleNormError):
        weighted_combo_l2(other, norm, f, [(1.0, 1, 0.0)])
    with pytest.raises(IncompatibleNormError):
        weighted_lp_norm(other, norm, generic_field(f.values, f.support), 0.0, 2.0)
    with pytest.raises(IncompatibleNormError):
        sphere_measure(other, norm)
    value, _ = weighted_lp_norm(own, norm, f, 0.0, 2.0)
    # the box sigma is off by ~3e-5 relative here, more than its error estimate
    assert value == pytest.approx(math.sqrt(14.0 * math.gamma(1.75)), rel=1e-4)
    assert sphere_measure(own, norm).value == pytest.approx(28.0, rel=1e-4)
    # an equal group built apart is the norm's own group
    assert weighted_lp_norm(GroupSpec(own.name, own.weights), norm, f, 0.0, 2.0)[0] == value
    # so is a group of another name with the same weights: the dilations agree
    euclid = make_norm(other, "euclidean")
    g = radial_field(gaussian_profile(), euclid, support=(1e-6, 30.0))
    for same in (parse_group("aniso:1,1,1"), GroupSpec("e3", (1, 1, 1))):
        assert weighted_lp_norm(same, euclid, g, 0.0, 2.0) == weighted_lp_norm(
            other, euclid, g, 0.0, 2.0)
        assert sphere_measure(same, euclid).value == sphere_measure(other, euclid).value


def test_an_equal_norm_object_keeps_the_one_node_route(monkeypatch):
    group = parse_group("heis1")
    own, equal = make_norm(group, "koranyi"), default_norm(parse_group("heis1"))
    assert own is not equal
    fields = [radial_field(_memo_profile(), own) for _ in range(2)]
    want = weighted_lp_norm(group, own, fields[0], 0.5, 2.0)

    def no_sphere_rule(*args):
        raise AssertionError("left the one-node route")

    monkeypatch.setattr(calculus, "sphere_rule", no_sphere_rule)
    assert weighted_lp_norm(group, equal, fields[1], 0.5, 2.0) == want
    assert nth_radial_derivative(group, equal, fields[1], 2).structure == "radial"


# -- norm memo ------------------------------------------------------------------


def _memo_profile():
    """A new root profile each call: equal values, nothing shared."""
    return log_gaussian_profile(1.0, 0.0, 0.5) * annulus_cutoff(0.2, 0.4, 2.5, 5.0)


def _memo_settings(case, prof):
    """Two measurements of one root profile that differ in one input of
    the integral: ``(group, norm, field, weight, p, config)`` each."""
    group = parse_group("r:3")
    euclid, cube = make_norm(group, "euclid"), make_norm(group, "max")
    base = (group, euclid, radial_field(prof, euclid), 0.5, 2.0, QuadratureConfig())
    if case == "norm":
        return [base, (group, cube, radial_field(prof, cube), 0.5, 2.0, QuadratureConfig())]
    if case == "norm group":
        other = make_norm(GroupSpec("r:3", (1.0, 1.0, 1.5)), "max")
        return [(*base[:1], cube, radial_field(prof, cube), *base[3:]),
                (other.group, other, radial_field(prof, other), 0.5, 2.0, QuadratureConfig())]
    if case == "support":
        narrow = radial_field(prof, euclid, support=(0.3, 4.0))
        return [base, (group, euclid, narrow, 0.5, 2.0, QuadratureConfig())]
    if case == "profile support":
        narrow = radial_field(prof.with_support((0.3, 4.0)), euclid)
        return [base, (group, euclid, narrow, 0.5, 2.0, QuadratureConfig())]
    if case == "radial order":
        return [base, (*base[:5], QuadratureConfig(radial_order=8))]
    if case == "p":
        return [base, (*base[:4], 3.0, base[5])]
    if case == "weight":
        return [base, (*base[:3], 1.0, *base[4:])]
    polys = [PolyFactor(((1, 0, 0),), (1.0,)), PolyFactor(((0, 0, 2), (2, 0, 0)), (1.0, 0.5j))]
    fields = [product_field(prof, q, euclid) for q in polys]
    if case == "poly":
        return [(group, euclid, g, 0.5, 2.0, QuadratureConfig()) for g in fields]
    assert case == "order"
    deriv = nth_radial_derivative(group, euclid, fields[0], 1)
    return [(group, euclid, g, 0.5, 2.0, QuadratureConfig()) for g in (fields[0], deriv)]


@pytest.mark.parametrize("case", ["norm", "norm group", "support", "profile support",
                                  "radial order", "p", "weight", "poly", "order"])
def test_norm_memo_keeps_apart_what_changes_the_integral(case):
    prof = _memo_profile()
    got = [weighted_lp_norm(*setting) for setting in _memo_settings(case, prof)]
    assert got[0][0] != got[1][0]
    for i, value in enumerate(got):
        assert value == weighted_lp_norm(*_memo_settings(case, _memo_profile())[i]), i
    # measured again, both come from the memo
    assert [weighted_lp_norm(*setting) for setting in _memo_settings(case, prof)] == got


@pytest.mark.parametrize("radial_fraction", [1.0, 0.0])
def test_one_fields_grid_measures_each_norm_once(heis, radial_fraction, monkeypatch):
    group, norm = heis
    f = _corpus_field(group, norm, radial_fraction)
    norms, combos, integrals = [], [], []
    lp, combo, polar = reports.weighted_lp_norm, reports.weighted_combo_l2, calculus._polar_integral

    def counting_lp(group, norm, g, weight, p, config=None):
        norms.append((g.profile.root()[1], g.order, weight, p))
        return lp(group, norm, g, weight, p, config)

    def counting_combo(group, norm, g, terms, *args, **kwargs):
        combos.append(tuple(terms))
        return combo(group, norm, g, terms, *args, **kwargs)

    def counting_polar(*args):
        integrals.append(args)
        return polar(*args)

    monkeypatch.setattr(reports, "weighted_lp_norm", counting_lp)
    monkeypatch.setattr(reports, "weighted_combo_l2", counting_combo)
    monkeypatch.setattr(calculus, "_polar_integral", counting_polar)
    for check, point in _GRID:
        _report(check, group, norm, f, point)
    assert len(integrals) == len(set(norms)) + len(set(combos))
    assert len(set(norms)) < len(norms) / 2


@pytest.mark.parametrize("radial_fraction", [1.0, 0.0])
@pytest.mark.parametrize("name", ["heis1", "aniso:1,2"])
def test_grid_order_and_cleared_caches_give_the_same_reports(name, radial_fraction):
    group = parse_group(name)
    norm = default_norm(group)

    def run(order, clear=False):
        f = _corpus_field(group, norm, radial_fraction)
        out = {}
        for i in order:
            if clear:
                clear_caches()
            check, point = _GRID[i]
            out[i] = _report(check, group, norm, f, point)
        return out

    forward = run(range(len(_GRID)))
    assert run(reversed(range(len(_GRID)))) == forward
    assert run(range(len(_GRID)), clear=True) == forward


def test_a_quasi_radial_ckn_report_takes_one_integrand_per_field(heis, monkeypatch):
    group, norm = heis
    f = _corpus_field(group, norm)
    calculus._NORMS.clear()
    calculus._INTEGRANDS.clear()
    orders = []
    stack = calculus._profile_stack

    def counting(prof, r, order):
        orders.append(prof.root()[1] + order)
        return stack(prof, r, order)

    monkeypatch.setattr(calculus, "_profile_stack", counting)
    evaluate("ckn", group, norm, f, {"p": 1.5, "alpha": 0.5, "beta": 1.0})
    # norm_lhs and norm_dual weigh one |f|^p on the paired node set
    assert sorted(orders) == [0, 1]


#: many weights at a few p, and the combinations of an identity
_SWEEP = [
    *[(check, {"p": p, "alpha": alpha, "beta": 1.0}) for p in (1.5, 2.0, 3.0)
      for check in ("ckn", "hardy", "hpw1") for alpha in (0.0, 0.5)],
    *[("up1p", {"p": p}) for p in (1.5, 2.0, 3.0)],
    ("l2-identity", {"alpha": 0.0, "k": 1}),
]


@pytest.mark.parametrize("kind", ["radial", "product", "opaque", "orbit_fd"])
def test_sweep_order_and_cleared_integrands_give_the_same_reports(kind):
    group = parse_group("heis1")
    norm = default_norm(group)
    mode = "orbit_fd" if kind == "orbit_fd" else "auto"

    def run(order, clear=lambda: None):
        f = _corpus_field(group, norm, 1.0 if kind == "radial" else 0.0)
        if kind == "opaque":
            f = generic_field(f.values, f.support, norm=norm, field_id=f.field_id)
        out = {}
        for i in order:
            clear()
            check, point = _SWEEP[i]
            try:
                out[i] = render_json([evaluate(check, group, norm, f, point, mode=mode)])
            except (DegenerateConstantError, InvalidParameterError) as exc:
                out[i] = repr(exc)
        return out

    forward = run(range(len(_SWEEP)))
    assert run(range(len(_SWEEP)), clear=calculus._INTEGRANDS.clear) == forward
    assert run(reversed(range(len(_SWEEP)))) == forward
    assert run(range(len(_SWEEP)), clear=clear_caches) == forward


@pytest.mark.parametrize("name", ["r:3", "heis1"])
def test_a_scan_and_a_deep_identity_read_the_same_with_every_cache_cleared(name):
    """The shared cutoff stacks serve both: the scan's truncated extremizers
    and the corpus field's cutoff on order-64 nodes."""
    group = parse_group(name)
    norm = default_norm(group)
    deep = QuadratureConfig(radial_order=64, radial_panels=12)

    def run():
        scan = sharpness_scan(group, norm, 2.0, 0.0, 1.0)
        report = l2_identity_report(group, norm, _corpus_field(group, norm), alpha=0.5, k=3,
                                    config=deep, mode="analytic")
        return render_document(scan.to_dict()), render_json([report])

    clear_caches()
    cold = run()
    assert len(profiles._CUTOFF_STACKS) > 1
    assert run() == cold
    clear_caches()
    assert run() == cold
