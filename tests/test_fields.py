import numpy as np
import pytest

from hgineq import (
    CorpusSpec,
    InvalidParameterError,
    PolyFactor,
    UnsupportedDomainError,
    clear_caches,
    default_norm,
    dilate,
    dilate_field,
    gaussian_profile,
    generic_field,
    log_gaussian_profile,
    make_corpus,
    make_norm,
    nth_radial_derivative,
    parse_group,
    product_field,
    radial_field,
    weighted_lp_norm,
)
from hgineq.calculus import _row_blocks
from hgineq.fields import _profile_dtype, orbit_profiles
from hgineq.profiles import RadialProfile
from hgineq.quadrature import DEFAULT_CONFIG, polar_radial_pair, sphere_rule


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


# -- the masked evaluators as first written, the bit-for-bit oracle ---------------

ORACLE_GROUPS = ("r:1", "r:3", "heis1", "aniso:1,2", "aniso:1,1,2")
#: each group under its default norm, and three pairs beside
ORACLE_PAIRS = [(name, None) for name in ORACLE_GROUPS] + [
    ("r:3", "max"), ("heis1", "aniso"), ("aniso:1,2", "max")]


def _ref_monomials(poly, x):
    x = np.asarray(x, dtype=float)
    e = np.asarray(poly.exponents)
    out = np.ones(x.shape[:-1] + (len(e),))
    for i in range(e.shape[1]):
        power = np.ones(x.shape[:-1])
        for d in range(1, e[:, i].max() + 1):
            power = power * x[..., i]
            out[..., e[:, i] == d] *= power[..., None]
    return out


def _ref_poly(poly, x):
    return _ref_monomials(poly, x) @ np.asarray(poly.coeffs)


def _single_point(fn):
    def wrapped(f, x):
        x = np.asarray(x, dtype=float)
        return fn(f, x[None])[0] if x.ndim == 1 else fn(f, x)

    return wrapped


def _dtype(f):
    dt = _profile_dtype(f.profile, f.support)
    return dt if f.poly is None else np.result_type(dt, np.asarray(f.poly.coeffs).dtype)


@_single_point
def _ref_values(f, x):
    prof, norm, poly, (r0, r1) = f.profile, f.norm, f.poly, f.support
    r = norm(x)
    out = np.zeros(r.shape, dtype=_dtype(f))
    m = (r >= r0) & (r <= r1)
    if np.any(m):
        if poly is None:
            out[m] = prof(r[m])
        elif f.order == 0:
            out[m] = prof(r[m]) * _ref_poly(poly, x[m])
        else:
            degs = poly.weighted_degrees(norm.group.weights)
            rs = r[m]
            terms = _ref_monomials(poly, x[m]) * rs[:, None] ** -degs
            out[m] = (terms * orbit_profiles(prof, degs, f.order, rs)) @ np.asarray(poly.coeffs)
    return out


@_single_point
def _ref_gradient(f, x):
    prof, norm, poly, (r0, r1) = f.profile, f.norm, f.poly, f.support
    r = norm(x)
    out = np.zeros(x.shape, dtype=_dtype(f))
    m = (r >= r0) & (r <= r1)
    if np.any(m):
        xs = x[m]
        if poly is None:
            out[m] = prof.derivatives(r[m], 1)[1][..., None] * norm.gradient(xs)
        else:
            stack = prof.derivatives(r[m], 1)
            out[m] = (stack[1] * _ref_poly(poly, xs))[..., None] * norm.gradient(xs) + stack[0][
                ..., None] * poly.gradient(xs)
    return out


def assert_same(got, want, where=""):
    """Equal dtype, shape and bits (NaN included)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, where
    assert np.array_equal(got, want, equal_nan=True), where
    assert got.tobytes() == want.tobytes(), where


def _blocks(group, norm, support):
    """Orbit blocks wholly inside ``support``, straddling each edge, wholly
    outside, inside but for one point, empty, a single point, and blocks
    holding NaN rows or the origin."""
    r0, r1 = support
    nodes, _ = sphere_rule(norm, 12)
    w = group.weight_array()

    def on_orbits(t):
        return (np.asarray(t)[:, None, None] ** w * nodes).reshape(-1, group.dim)

    inside = on_orbits(np.linspace(1.05 * r0, 0.95 * r1, 9))
    one_out = inside.copy()
    one_out[len(one_out) // 2] = on_orbits([2.0 * r1])[0]
    special = inside.copy()
    special[3] = np.nan
    special[7] = 0.0
    rng = np.random.default_rng(7)
    row = len(nodes)
    return {
        "inside": inside,
        "runs across a row's end": inside[row - 3:row + 14],
        "runs of two": np.repeat(inside[::5][:30], 2, axis=0),
        "no repeated radius": inside[::row],
        "straddles r0": on_orbits(np.linspace(0.5 * r0, 2.0 * r0, 9)),
        "straddles r1": on_orbits(np.linspace(0.5 * r1, 2.0 * r1, 9)),
        "outside": on_orbits(np.linspace(1.1 * r1, 3.0 * r1, 5)),
        "one point outside": one_out,
        "empty": np.empty((0, group.dim)),
        "single point": inside[5],
        "single point outside": one_out[len(one_out) // 2],
        "NaN and origin": special,
        "NaN inside": np.where(np.arange(len(inside))[:, None] == 2, np.nan, inside),
        "random": rng.normal(size=(200, group.dim)),
        "batched": inside[:18].reshape(3, 6, group.dim),
        "strided": np.asfortranarray(inside),
    }


def _oracle_fields(name, kind):
    group = parse_group(name)
    norm = make_norm(group, kind) if kind else default_norm(group)
    spec = dict(count=6, seed=4, annulus=(0.3, 3.0))
    radial = make_corpus(group, norm, CorpusSpec(radial_fraction=1.0, **spec))
    product = make_corpus(group, norm, CorpusSpec(radial_fraction=0.0, **spec))
    real = [radial_field(gaussian_profile(1.0), norm, support=(0.3, 3.0), field_id="real")]
    orders = [nth_radial_derivative(group, norm, f, k) for f in product[:2] for k in (1, 2)]
    fields = real + radial + product + orders
    assert {f.order for f in fields} == {0, 1, 2}
    assert {_dtype(f).kind for f in fields} == {"f", "c"}
    return group, norm, fields


@pytest.mark.parametrize("name, kind", ORACLE_PAIRS)
def test_evaluators_match_the_masked_oracle(name, kind):
    group, norm, fields = _oracle_fields(name, kind)
    for f in fields:
        for label, x in _blocks(group, norm, f.support).items():
            assert_same(f.values(x), _ref_values(f, x), (f.field_id, label))
            if f.gradient is not None:
                assert_same(f.gradient(x), _ref_gradient(f, x), (f.field_id, label))


@pytest.mark.parametrize("name", ["r:3", "heis1", "aniso:1,2"])
def test_a_quasi_radial_derivative_has_the_bits_of_a_field_on_the_derived_profile(name):
    group = parse_group(name)
    norm = default_norm(group)
    f = make_corpus(group, norm, CorpusSpec(count=1, seed=4, annulus=(0.3, 3.0)))[0]
    assert f.is_quasi_radial
    for k in (1, 2):
        rk = nth_radial_derivative(group, norm, f, k)
        hand = radial_field(f.profile.derivative(k), norm, support=f.support, field_id="hand")
        assert (rk.order, rk.profile is f.profile, hand.order) == (k, True, 0)
        assert rk.gradient is not None and hand.gradient is not None
        for label, x in _blocks(group, norm, f.support).items():
            assert_same(rk.values(x), hand.values(x), (k, label))
            assert_same(rk.gradient(x), hand.gradient(x), (k, label))
            dilated = [dilate_field(group, g, 1.3).values(x) for g in (rk, hand)]
            assert_same(*dilated, (k, label))
        norms = []
        for g in (rk, hand):
            clear_caches()
            norms.append(weighted_lp_norm(group, norm, g, 0.5, 1.5))
        assert norms[0] == norms[1]


@pytest.mark.parametrize("order", [True, -1, 1.5])
def test_a_product_field_refuses_a_bad_order(heis_pair, order):
    g, n = heis_pair
    q = PolyFactor(exponents=((1, 0, 0),), coeffs=(1.0,))
    with pytest.raises(InvalidParameterError):
        product_field(gaussian_profile(1.0), q, n, support=(0.5, 2.0), order=order)


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_monomials_match_the_masked_oracle(name):
    group = parse_group(name)
    n = group.dim
    rng = np.random.default_rng(11)
    exps = [tuple(rng.integers(0, 4, size=n)) for _ in range(12)] + [(0,) * n, (2,) * n]
    q = PolyFactor(exponents=tuple(exps), coeffs=(1.0,) * len(exps))
    x = rng.normal(size=(500, n))
    x[3] = np.nan
    x[4] = 0.0
    x[5, 0] = -0.0
    x[6] = np.inf
    for pts in (x, x[0], x[:0], x.reshape(20, 25, n), np.asfortranarray(x)):
        assert_same(q.monomials(pts), _ref_monomials(q, pts))


# -- one profile evaluation per run of equal radii ------------------------------


def _orbit_block(group, norm, support):
    """The first block ``_on_orbits`` passes to an opaque field on the
    default polar grid: whole rows of radii times the sphere nodes."""
    cfg = DEFAULT_CONFIG
    nodes, _ = sphere_rule(norm, cfg.sphere_order)
    r = polar_radial_pair(*support, cfg.radial_order, cfg.radial_panels)[1][0]
    rows = _row_blocks(len(r), len(nodes))[0]
    w = group.weight_array()
    return (r[rows, None, None] ** w * nodes).reshape(-1, group.dim)


def _profile_fields(group, norm):
    """A quasi-radial and a product field with complex amplitudes, each at
    orders 0 to 3."""
    spec = dict(count=1, seed=4, annulus=(0.3, 3.0))
    bases = [make_corpus(group, norm, CorpusSpec(radial_fraction=fraction, **spec))[0]
             for fraction in (1.0, 0.0)]
    assert [f.structure for f in bases] == ["radial", "product"]
    assert all(_dtype(f).kind == "c" for f in bases)
    return [nth_radial_derivative(group, norm, f, k) for f in bases for k in range(4)]


def _per_point_values(f, x):
    """``f.values(x)`` on a block inside the support, with every radial
    factor evaluated at one radius at a time and the polynomial on the
    whole block (a BLAS product's rounding depends on its row count)."""
    prof, poly, k, r = f.profile, f.poly, f.order, f.norm(x)

    def each(fn):
        return np.concatenate([fn(r[i:i + 1]) for i in range(len(r))])

    if poly is None:
        return each(lambda s: prof.derivatives(s, k)[k]).astype(complex)
    if k == 0:
        return each(prof) * poly(x)
    degs = poly.weighted_degrees(f.norm.group.weights)
    terms = poly.monomials(x) * each(lambda s: s[:, None] ** -degs)
    return (terms * each(lambda s: orbit_profiles(prof, degs, k, s))) @ np.asarray(poly.coeffs)


@pytest.mark.parametrize("name", ["r:3", "heis1", "aniso:1,2"])
def test_values_on_orbit_blocks_equal_a_per_point_evaluation(name):
    """Runs of equal radii falling anywhere in a vector, and a block with
    no repeated radius, give the bits of one radius at a time."""
    group = parse_group(name)
    norm = default_norm(group)
    x = _orbit_block(group, norm, (0.3, 3.0))
    row = len(sphere_rule(norm, DEFAULT_CONFIG.sphere_order)[0])
    r = norm(x)
    assert np.count_nonzero(r[1:] != r[:-1]) < len(r) / 2  # the block holds runs
    starts = (0, row - 9, 2 * row - 1)
    blocks = [x[s:s + n] for s in starts for n in range(1, 18)] + [x[:2 * row + 5], x[::row]]
    assert len(np.unique(norm(blocks[-1]))) == len(blocks[-1])
    for f in _profile_fields(group, norm):
        for block in blocks:
            assert_same(f.values(block), _per_point_values(f, block), (f.field_id, len(block)))


@pytest.mark.parametrize("name", ["r:3", "heis1"])
def test_a_profile_is_evaluated_once_per_run_of_equal_radii(name, monkeypatch):
    """The profile sees at most 40% of an opaque field's orbit block."""
    group = parse_group(name)
    norm = default_norm(group)
    x = _orbit_block(group, norm, (0.2, 5.0))
    assert len(x) == 16128
    seen, depth = [], [0]
    derivatives = RadialProfile.derivatives

    def counting(self, r, order):
        if not depth[0]:
            seen.append(np.size(r))
        depth[0] += 1
        try:
            return derivatives(self, r, order)
        finally:
            depth[0] -= 1

    spec = CorpusSpec(count=2, seed=1, radial_fraction=0.5)
    fields = make_corpus(group, norm, spec)
    monkeypatch.setattr(RadialProfile, "derivatives", counting)
    for f in fields:
        seen.clear()
        f.values(x)
        assert 0 < sum(seen) <= 0.4 * len(x), f.field_id
