from math import comb, factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgineq import (
    DEFAULT_CONFIG,
    DEFAULT_SCHEDULE,
    InvalidParameterError,
    annulus_cutoff,
    constant_profile,
    exp_power_profile,
    gaussian_profile,
    log_gaussian_profile,
    power_profile,
    smooth_step_profile,
)
from hgineq import profiles as P
from hgineq.quadrature import polar_radial_nodes, radial_log_nodes

R = np.geomspace(0.01, 100.0, 257)


def fd_derivative(prof, r, h_rel=1e-6):
    h = h_rel * r
    return (prof(r + h) - prof(r - h)) / (2 * h)


def test_constant_profile():
    p = constant_profile(3.5)
    stack = p.derivatives(R, 3)
    assert np.all(stack[0] == 3.5)
    assert np.all(stack[1:] == 0.0)


def test_power_profile_closed_form():
    p = power_profile(-2.5, coeff=2.0)
    r = np.array([0.5, 1.0, 4.0])
    stack = p.derivatives(r, 3)
    assert np.allclose(stack[0], 2.0 * r**-2.5, rtol=1e-14)
    assert np.allclose(stack[1], 2.0 * -2.5 * r**-3.5, rtol=1e-14)
    assert np.allclose(stack[2], 2.0 * -2.5 * -3.5 * r**-4.5, rtol=1e-14)
    assert np.allclose(stack[3], 2.0 * -2.5 * -3.5 * -4.5 * r**-5.5, rtol=1e-14)


def test_gaussian_profile_closed_form():
    g = gaussian_profile(1.0)  # exp(-r^2/2)
    r = np.array([0.3, 1.0, 2.2])
    stack = g.derivatives(r, 2)
    v = np.exp(-(r**2) / 2)
    assert np.allclose(stack[0], v, rtol=1e-14)
    assert np.allclose(stack[1], -r * v, rtol=1e-14)
    assert np.allclose(stack[2], (r**2 - 1) * v, rtol=1e-13)


def test_exp_power_profile_derivatives_vs_fd():
    p = exp_power_profile(0.7, -1.3, r_ref=1.0)
    r = np.geomspace(0.5, 5.0, 41)
    assert np.allclose(p.derivative(1)(r), fd_derivative(p, r), rtol=1e-7, atol=1e-12)
    with pytest.raises(InvalidParameterError):
        exp_power_profile(1.0, 0.0)


def test_log_gaussian_profile_vs_fd():
    p = log_gaussian_profile(2.0, 0.5, 0.3)
    r = np.geomspace(0.2, 10.0, 41)
    v = 2.0 * np.exp(-((np.log(r) - 0.5) ** 2) / (2 * 0.3**2))
    assert np.allclose(p(r), v, rtol=1e-13)
    assert np.allclose(p.derivative(1)(r), fd_derivative(p, r), rtol=1e-6, atol=1e-12)
    # complex amplitude flows through the whole stack
    pc = log_gaussian_profile(1.0 + 2.0j, 0.0, 0.4)
    stack = pc.derivatives(r, 2)
    assert stack.dtype == complex
    assert np.allclose(stack[0], (1.0 + 2.0j) * np.exp(-np.log(r) ** 2 / 0.32), rtol=1e-12)


def test_smooth_step_plateaus_are_exact():
    s = smooth_step_profile(1.0, 2.0)
    stack_lo = s.derivatives(np.array([0.5, 0.9999, 1.0]), 4)
    stack_hi = s.derivatives(np.array([2.0, 2.0001, 7.0]), 4)
    assert np.all(stack_lo[0] == 0.0)
    assert np.all(stack_hi[0] == 1.0)
    assert np.all(stack_lo[1:] == 0.0)
    assert np.all(stack_hi[1:] == 0.0)
    mid = s(np.array([1.5]))
    assert 0.0 < mid[0] < 1.0


def test_smooth_step_falling():
    s = smooth_step_profile(1.0, 2.0, rising=False)
    assert s(np.array([0.5]))[0] == 1.0
    assert s(np.array([3.0]))[0] == 0.0


@settings(max_examples=40, deadline=None)
@given(t=st.floats(0.01, 0.99))
def test_smooth_step_monotone(t):
    s = smooth_step_profile(0.0, 1.0)
    h = 1e-4
    lo, hi = max(t - h, 0.0), min(t + h, 1.0)
    a, b = s(np.array([lo]))[0], s(np.array([hi]))[0]
    assert b >= a - 1e-15


def test_annulus_cutoff_shape():
    chi = annulus_cutoff(0.5, 1.0, 4.0, 8.0)
    r = np.array([0.4, 0.5, 0.75, 1.0, 2.0, 4.0, 6.0, 8.0, 9.0])
    v = chi(r)
    assert v[0] == 0.0 and v[1] == 0.0
    assert 0.0 < v[2] < 1.0
    assert v[3] == 1.0 and v[4] == 1.0 and v[5] == 1.0
    assert 0.0 < v[6] < 1.0
    assert v[7] == 0.0 and v[8] == 0.0
    assert chi.support == (0.5, 8.0)
    # all derivatives vanish identically on the plateau and outside
    stack = chi.derivatives(np.array([0.4, 2.0, 9.0]), 3)
    assert np.all(stack[1:] == 0.0)


def test_annulus_cutoff_validation():
    with pytest.raises(InvalidParameterError):
        annulus_cutoff(0.0, 1.0, 2.0, 3.0)
    with pytest.raises(InvalidParameterError):
        annulus_cutoff(1.0, 0.5, 2.0, 3.0)
    with pytest.raises(InvalidParameterError):
        annulus_cutoff(0.5, 1.0, 3.5, 3.0)


def test_product_rule_leibniz():
    f = gaussian_profile(1.0)
    g = power_profile(1.5)
    fg = f * g
    r = np.geomspace(0.3, 3.0, 17)
    sf, sg, sfg = f.derivatives(r, 2), g.derivatives(r, 2), fg.derivatives(r, 2)
    assert np.allclose(sfg[0], sf[0] * sg[0], rtol=1e-14)
    assert np.allclose(sfg[1], sf[1] * sg[0] + sf[0] * sg[1], rtol=1e-13)
    assert np.allclose(
        sfg[2], sf[2] * sg[0] + 2 * sf[1] * sg[1] + sf[0] * sg[2], rtol=1e-13
    )


def test_scalar_multiples_and_sums():
    f = gaussian_profile(1.0)
    r = np.array([0.7, 1.4])
    assert np.allclose((2.5 * f)(r), 2.5 * f(r))
    assert np.allclose((f + f)(r), 2.0 * f(r))
    assert np.allclose((-f)(r), -f(r))
    assert np.allclose((f - 0.5 * f)(r), 0.5 * f(r))


def test_scale_argument_chain_rule():
    f = log_gaussian_profile(1.0, 0.0, 0.5)
    lam = 1.7
    g = f.scale_argument(lam)
    r = np.geomspace(0.5, 2.0, 9)
    assert np.allclose(g(r), f(lam * r), rtol=1e-14)
    assert np.allclose(g.derivative(1)(r), lam * f.derivative(1)(lam * r), rtol=1e-13)
    assert np.allclose(
        g.derivative(2)(r), lam**2 * f.derivative(2)(lam * r), rtol=1e-13
    )


def test_support_metadata_propagates():
    chi = annulus_cutoff(0.5, 1.0, 2.0, 4.0)
    f = gaussian_profile(1.0)  # support None: everywhere
    prod = chi * f
    assert prod.support == (0.5, 4.0)
    # with_support narrows the declared window (masking happens at the
    # field layer, not here)
    clipped = prod.with_support((1.0, 2.0))
    assert clipped.support == (1.0, 2.0)
    assert prod.support == (0.5, 4.0)  # original untouched
    narrower = annulus_cutoff(1.0, 1.5, 2.0, 3.0)
    assert (chi * narrower).support == (1.0, 3.0)


# -- the stack kernels against their straightforward forms ---------------
#
# The reference bodies below are plain double loops: entries start from a
# zero fill, every term carries its binomial factor, and the annulus cutoff
# is the full Leibniz product of a rising and a falling step.  The kernels
# of ``profiles`` keep each entry's float operations and their order, so
# they must agree bit for bit (``-0.0`` and ``0.0`` compare equal: the sign
# of a zero entry is not pinned).


def _leibniz_reference(a, b):
    order = a.shape[0] - 1
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    for k in range(order + 1):
        for i in range(k + 1):
            out[k] += comb(k, i) * a[i] * b[k - i]
    return out


def _exp_stack_reference(w):
    order = w.shape[0] - 1
    h = np.zeros(w.shape, dtype=np.result_type(w, float))
    h[0] = np.exp(w[0])
    for m in range(1, order + 1):
        for i in range(m):
            h[m] += comb(m - 1, i) * w[i + 1] * h[m - 1 - i]
    return h


def _neg_reciprocal_reference(t, order):
    w = np.zeros((order + 1,) + t.shape)
    w[0] = -1.0 / t
    fact = 1.0
    for k in range(1, order + 1):
        w[k] = ((-1.0) ** (k + 1)) * fact * t ** (-(k + 1.0))
        fact *= k + 1
    return w


def _step_stack_reference(t, order):
    out = np.zeros((order + 1,) + t.shape)
    hi = t >= 1.0 - P._STEP_PAD
    out[0][hi] = 1.0
    mid = (t > P._STEP_PAD) & ~hi
    if np.any(mid):
        tm = t[mid]
        a = _exp_stack_reference(_neg_reciprocal_reference(tm, order))
        ab = _exp_stack_reference(_neg_reciprocal_reference(1.0 - tm, order))
        for k in range(1, order + 1, 2):
            ab[k] = -ab[k]
        d = a + ab
        s = np.zeros_like(a)
        s[0] = a[0] / d[0]
        for k in range(1, order + 1):
            acc = a[k].copy()
            for i in range(k):
                acc -= comb(k, i) * s[i] * d[k - i]
            s[k] = acc / d[0]
        for k in range(order + 1):
            out[k][mid] = s[k]
    return out


def _step_reference(lo, hi, rising, r, order):
    scale = 1.0 / (hi - lo)
    t = (r - lo) * scale if rising else (hi - r) * scale
    s = _step_stack_reference(t, order)
    fac = scale if rising else -scale
    for k in range(1, order + 1):
        s[k] *= fac**k
    return s


def _cutoff_reference(lo, lo_top, hi_bottom, hi, r, order):
    return _leibniz_reference(_step_reference(lo, lo_top, True, r, order),
                              _step_reference(hi_bottom, hi, False, r, order))


def _log_gaussian_reference(amp, center, width, r, order):
    v = np.zeros((order + 1,) + r.shape)
    v[0] = np.log(r) - center
    for k in range(1, order + 1):
        v[k] = ((-1.0) ** (k - 1)) * factorial(k - 1) * r ** (-float(k))
    return amp * _exp_stack_reference(_leibniz_reference(v, v) * (-0.5 / width**2))


ORDERS = range(7)
PAD = P._STEP_PAD
# lo_top - lo is exactly 1, and lo + PAD and lo + (1 - PAD) are exact doubles,
# so these nodes sit at t = PAD and t = 1 - PAD of the rising step exactly.
# hi - hi_bottom is exactly 1 with r in [0.75, 3], so hi - r is exact and
# t = 1 - PAD of the falling step is hit exactly too.  (t = PAD of a falling
# step is not a double's image: hi - r is a multiple of ulp(r), far coarser
# than the ulp of PAD.)
LO = 2.0**-20
EDGE_CUTOFF = (LO, LO + 1.0, 1.5, 2.5)
EDGE_NODES = np.array([LO + PAD, LO + (1.0 - PAD), 2.5 - (1.0 - PAD)])


def _nodes(lo, lo_top, hi_bottom, hi, n=97):
    """Nodes that straddle both bands: below lo, in each band, on the
    plateau, above hi, and the band edges themselves."""
    r = np.concatenate((np.linspace(0.5 * lo, 1.5 * hi, n),
                        np.linspace(lo, lo_top, 23), np.linspace(hi_bottom, hi, 23),
                        [lo, lo_top, hi_bottom, hi]))
    return np.random.default_rng(1).permutation(r)


def _random_stack(rng, order, shape, complex_):
    s = rng.standard_normal((order + 1,) + shape)
    if complex_:
        s = s + 1j * rng.standard_normal((order + 1,) + shape)
    return s


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("kinds", ["real", "complex", "real*complex", "complex*real"])
def test_leibniz_matches_the_reference_bit_for_bit(order, kinds):
    rng = np.random.default_rng(order)
    ca, cb = ("complex" in kinds.split("*")[0]), ("complex" in kinds.split("*")[-1])
    for shape in ((50,), (3, 4)):
        a = _random_stack(rng, order, shape, ca)
        b = _random_stack(rng, order, shape, cb)
        got, want = P._leibniz(a, b), _leibniz_reference(a, b)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("complex_", [False, True])
def test_exp_stack_matches_the_reference_bit_for_bit(order, complex_):
    rng = np.random.default_rng(10 + order)
    w = _random_stack(rng, order, (60,), complex_)
    got, want = P._exp_stack(w), _exp_stack_reference(w)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("order", ORDERS)
def test_smooth_step_stack_matches_the_reference_bit_for_bit(order):
    t = np.concatenate((np.linspace(-0.5, 1.5, 201), [PAD, 1.0 - PAD, 0.0, 1.0]))
    assert np.array_equal(P.smooth_step_stack(t, order), _step_stack_reference(t, order))
    r = _nodes(1.0, 2.0, 3.0, 4.0)
    for lo, hi, rising in ((1.0, 2.0, True), (3.0, 4.0, False)):
        got = smooth_step_profile(lo, hi, rising).derivatives(r, order)
        assert np.array_equal(got, _step_reference(lo, hi, rising, r, order))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("bands", [(0.5, 1.0, 4.0, 8.0), (0.3, 0.6, 2.0, 4.0),
                                   (1e-8, 2e-8, 0.5e8, 1e8), (0.5, 1.0, 1.0, 3.0),
                                   EDGE_CUTOFF])
def test_annulus_cutoff_matches_the_product_of_two_steps_bit_for_bit(order, bands):
    """``lo_top == hi_bottom`` is the case ``(0.5, 1.0, 1.0, 3.0)``."""
    r = _nodes(*bands)
    if bands == EDGE_CUTOFF:
        lo, lo_top, hi_bottom, hi = bands
        assert ((EDGE_NODES[:2] - lo) * (1.0 / (lo_top - lo)) == [PAD, 1.0 - PAD]).all()
        assert (hi - EDGE_NODES[2]) * (1.0 / (hi - hi_bottom)) == 1.0 - PAD
        r = np.concatenate((r, EDGE_NODES))
    got = annulus_cutoff(*bands).derivatives(r, order)
    assert np.array_equal(got, _cutoff_reference(*bands, r, order))
    r2 = r[: 12 * 9].reshape(12, 9)
    assert np.array_equal(annulus_cutoff(*bands).derivatives(r2, order),
                          _cutoff_reference(*bands, r2, order))


@pytest.mark.parametrize("order", ORDERS)
def test_complex_profile_times_cutoff_matches_the_reference(order):
    prof = log_gaussian_profile(1.0 + 0.7j, 0.1, 0.5)
    bands = (0.2, 0.4, 2.5, 5.0)
    r = _nodes(*bands)
    want = _leibniz_reference(prof.derivatives(r, order),
                              _cutoff_reference(*bands, r, order))
    got = (prof * annulus_cutoff(*bands)).derivatives(r, order)
    assert got.dtype == want.dtype == complex
    assert np.array_equal(got, want)


@pytest.mark.parametrize("prof", [
    constant_profile(2.0), power_profile(1.5), exp_power_profile(1.0, 2.0), gaussian_profile(1.0),
    log_gaussian_profile(1.0 + 0.5j, 0.0, 0.5), annulus_cutoff(1.0, 2.0, 3.0, 4.0),
    smooth_step_profile(1.0, 2.0), smooth_step_profile(3.0, 4.0, rising=False),
    log_gaussian_profile(1.0, 0.0, 0.5) * annulus_cutoff(1.0, 2.0, 3.0, 4.0),
    gaussian_profile(1.0).scale_argument(2.0)], ids=lambda p: p.label)
def test_a_scalar_radius_gives_the_stack_of_a_one_point_array(prof):
    for x in (0.5, 1.5, 2.5, 3.5, 5.0):
        stack = prof.derivatives(x, 3)
        assert stack.shape == (4,)
        assert np.array_equal(stack, prof.derivatives(np.array([x]), 3)[:, 0])
        assert prof(x) == stack[0]


ORDER_0_BANDS = (0.5, 1.0, 4.0, 8.0)
#: radii for the order-0 passes: a scalar, one point, no band point (the
#: plateau and outside), every point in a band, and both bands at once
ORDER_0_RADII = {
    "scalar": np.array(0.7), "one point": np.array([6.0]),
    "no band point": np.array([0.3, 1.0, 2.0, 4.0, 9.0, 0.5]),
    "all in a band": np.linspace(0.55, 0.95, 13),
    "both bands": np.concatenate((np.linspace(0.6, 0.9, 5), np.linspace(4.5, 7.5, 6))),
}


@pytest.mark.parametrize("label", ORDER_0_RADII)
def test_order_0_passes_match_the_references(label):
    r = ORDER_0_RADII[label]
    bands = ORDER_0_BANDS
    r1 = np.atleast_1d(r)  # the references take arrays; a scalar's stack is a point's
    for order in (0, 1, 2):
        want = _cutoff_reference(*bands, r1, order).reshape((order + 1,) + r.shape)
        assert np.array_equal(annulus_cutoff(*bands).derivatives(r, order), want), order
        for amp in (0.8, 0.6 - 0.4j):
            got = log_gaussian_profile(amp, 0.2, 0.4).derivatives(r, order)
            want = _log_gaussian_reference(amp, 0.2, 0.4, r1, order).reshape(
                (order + 1,) + r.shape)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.array_equal(got, want), (amp, order)
    rng = np.random.default_rng(3)
    for ca, cb in ((False, False), (True, False), (False, True)):
        a = _random_stack(rng, 0, r.shape, ca)
        b = _random_stack(rng, 0, r.shape, cb)
        got, want = P._leibniz(a, b), _leibniz_reference(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)


# -- shared cutoff stacks ---------------------------------------------------------


@pytest.fixture
def empty_cutoff_memo():
    P._CUTOFF_STACKS.clear()
    yield P._CUTOFF_STACKS
    P._CUTOFF_STACKS.clear()


def _carriers():
    """The corpus annulus and the carrier of each default scan entry, each
    with the full and the coarse node set of the default configuration."""
    bands = [(0.2, 0.4, 2.5, 5.0)] + [(e / 2, e, r, 2 * r) for e, r in DEFAULT_SCHEDULE]
    order, panels = DEFAULT_CONFIG.radial_order, DEFAULT_CONFIG.radial_panels
    return [(b, polar_radial_nodes(b[0], b[3], n, panels)[0])
            for b in bands for n in (order, order // 2)]


def test_memoized_stacks_equal_fresh_evaluations_bit_for_bit(empty_cutoff_memo):
    for bands, r in _carriers():
        assert not r.flags.writeable
        fresh = annulus_cutoff(*bands).derivatives(np.array(r), 4)
        # a lower order is a slice, a higher one replaces the entry
        for order in (2, 0, 4, 1, 3):
            got = annulus_cutoff(*bands).derivatives(r, order)
            assert got.tobytes() == fresh[:order + 1].tobytes(), (bands, order)
    assert len(empty_cutoff_memo) == len(_carriers())
    # another cutoff on the same node array has its own entry
    (bands, r), = _carriers()[:1]
    other = (bands[0], 0.3, 3.0, bands[3])
    got = annulus_cutoff(*other).derivatives(r, 2)
    assert got.tobytes() == annulus_cutoff(*other).derivatives(np.array(r), 2).tobytes()
    assert got.tobytes() != annulus_cutoff(*bands).derivatives(r, 2).tobytes()


def test_a_cutoff_stack_is_shared_and_cannot_be_written(empty_cutoff_memo):
    (bands, r), = _carriers()[:1]
    first = annulus_cutoff(*bands).derivatives(r, 3)
    second = annulus_cutoff(*bands).derivatives(r, 2)
    assert np.shares_memory(first, second)
    before = first.tobytes()
    with pytest.raises(ValueError):
        second[0, 0] = 2.0
    with pytest.raises(ValueError):
        second.flags.writeable = True
    # a product takes the shared stack and returns its own array
    prod = (gaussian_profile(1.0) * annulus_cutoff(*bands)).derivatives(r, 3)
    prod[:] = 0.0
    assert annulus_cutoff(*bands).derivatives(r, 3).tobytes() == before


def test_the_cutoff_memo_keeps_at_most_its_bound(empty_cutoff_memo):
    cut = annulus_cutoff(0.2, 0.4, 2.5, 5.0)
    for order in range(2, P._CUTOFF_STACKS.size + 12):
        cut.derivatives(radial_log_nodes(0.2, 5.0, order, 8)[0], 1)
        assert len(empty_cutoff_memo) <= P._CUTOFF_STACKS.size
    assert len(empty_cutoff_memo) == P._CUTOFF_STACKS.size


def test_a_read_only_view_of_changing_data_is_evaluated_fresh(empty_cutoff_memo):
    (bands, r), = _carriers()[:1]
    cut = annulus_cutoff(*bands)
    base = np.array(r)
    view = np.broadcast_to(base, base.shape)
    assert not view.flags.writeable
    assert cut.derivatives(view, 3).tobytes() == cut.derivatives(r, 3).tobytes()
    base *= 1.5
    assert cut.derivatives(view, 3).tobytes() == cut.derivatives(base.copy(), 3).tobytes()
    frozen = np.array(r)
    frozen.flags.writeable = False
    cut.derivatives(frozen, 3)
    assert len(empty_cutoff_memo) == 1


def test_a_writable_array_is_evaluated_fresh(empty_cutoff_memo):
    (bands, r), = _carriers()[:1]
    shared = annulus_cutoff(*bands).derivatives(r, 3)
    copy = np.array(r)
    got = annulus_cutoff(*bands).derivatives(copy, 3)
    assert got.flags.writeable and not np.shares_memory(got, shared)
    assert got.tobytes() == shared.tobytes()
    assert len(empty_cutoff_memo) == 1
