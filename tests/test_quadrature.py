import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from scipy.integrate import quad

from hgineq import (
    InvalidParameterError,
    QuadratureConfig,
    calculus,
    clear_sphere_measure_cache,
    integrate_box,
    integrate_mc,
    integrate_radial,
    make_norm,
    parse_group,
    sphere_measure,
)
from hgineq.quadrature import _BLOCK, _EVAL_CHUNK, _box_bounds, _box_pass, _gauss, effective_panels


def test_config_validation_and_digest():
    cfg = QuadratureConfig()
    assert [f.name for f in fields(cfg)] == ["radial_order", "radial_panels", "box_points"]
    assert cfg.radial_order == 32 and cfg.radial_panels == 8
    assert cfg.box_points == 64
    with pytest.raises(InvalidParameterError):
        QuadratureConfig(radial_order=1)
    with pytest.raises(InvalidParameterError):
        QuadratureConfig(box_points=0)
    d1, d2 = cfg.digest(), QuadratureConfig().digest()
    assert d1 == d2 and len(d1) == 12
    assert cfg.doubled().radial_order == 64
    assert cfg.doubled().digest() != d1



@pytest.mark.parametrize("name", ["radial_order", "radial_panels", "box_points"])
@pytest.mark.parametrize("value", [48.0, "48", None])
def test_config_rejects_a_non_integer_count(name, value):
    with pytest.raises(InvalidParameterError, match=f"{name} must be an integer"):
        QuadratureConfig(**{name: value})


def test_config_takes_numpy_integers():
    cfg = QuadratureConfig(radial_order=np.int64(48), box_points=np.int32(48))
    assert type(cfg.radial_order) is int and type(cfg.box_points) is int
    assert cfg.digest() == QuadratureConfig(radial_order=48, box_points=48).digest()

def test_radial_vs_scipy_gaussian():
    val, err = integrate_radial(lambda r: np.exp(-(r**2)), 1e-8, 40.0, QuadratureConfig())
    oracle, _ = quad(lambda r: np.exp(-(r**2)), 1e-8, 40.0)
    assert val == pytest.approx(oracle, rel=1e-12)
    assert abs(val - oracle) <= max(err, 1e-12)


def test_radial_log_uniform_integrand():
    # 1/r over [1e-6, 1e6] = 12 ln 10: the panel count must grow with the
    # log-range for this to come out right
    val, err = integrate_radial(lambda r: 1.0 / r, 1e-6, 1e6, QuadratureConfig())
    assert val == pytest.approx(12 * np.log(10.0), rel=1e-12)


def test_radial_singular_power():
    # r^(-0.9) over [1e-4, 1]: smooth in log coordinates
    val, _ = integrate_radial(lambda r: r**-0.9, 1e-4, 1.0, QuadratureConfig())
    oracle = (1 - (1e-4) ** 0.1) / 0.1
    assert val == pytest.approx(oracle, rel=1e-12)


def test_radial_oscillatory_vs_scipy():
    fn = lambda r: np.sin(3.0 * r) * np.exp(-r)
    val, err = integrate_radial(fn, 0.1, 20.0, QuadratureConfig())
    oracle, _ = quad(fn, 0.1, 20.0, limit=200)
    assert val == pytest.approx(oracle, rel=1e-10)


def test_effective_panels_grow_with_log_range():
    assert effective_panels(1.0, 2.0, 8) == 8
    assert effective_panels(1e-8, 1e8, 8) >= 2 * np.log(1e16) - 1
    assert effective_panels(1e-150, 1e150, 8) == 1382
    # a ratio beyond double range has no panel count
    with pytest.raises(InvalidParameterError):
        effective_panels(1e-300, 1e300, 8)


def test_radial_validation():
    with pytest.raises(InvalidParameterError):
        integrate_radial(lambda r: r, -1.0, 2.0, QuadratureConfig())
    with pytest.raises(InvalidParameterError):
        integrate_radial(lambda r: r, 2.0, 1.0, QuadratureConfig())


def test_box_constant_unit_square():
    # indicator of [0,1]^2 inside the symmetric box [-1,1]^2
    def fn(x):
        return np.where((x[..., 0] >= 0) & (x[..., 1] >= 0), 1.0, 0.0)

    val, err = integrate_box(fn, (1.0, 1.0), QuadratureConfig())
    assert val == pytest.approx(1.0, abs=max(5 * err, 5e-2))


def test_box_gaussian_bump_closed_form():
    # exp(-|x|^2) over R^2 (truncated at 6 sigma) = pi
    def fn(x):
        return np.exp(-np.sum(x**2, axis=-1))

    val, err = integrate_box(fn, (6.0, 6.0), QuadratureConfig())
    assert val == pytest.approx(np.pi, rel=1e-6)


def test_box_error_estimate_tracks_doubling():
    def fn(x):
        return np.exp(-np.sum(x**2, axis=-1))

    v1, e1 = integrate_box(fn, (6.0, 6.0), QuadratureConfig(box_points=24))
    v2, e2 = integrate_box(fn, (6.0, 6.0), QuadratureConfig(box_points=48))
    assert abs(v2 - np.pi) < abs(v1 - np.pi) + 1e-15
    assert abs(v1 - np.pi) <= 10 * e1 + 1e-12


def test_mc_matches_box_within_3_sigma():
    def fn(x):
        return np.exp(-np.sum(x**2, axis=-1))

    val, err = integrate_mc(fn, (6.0, 6.0), 400_000, seed=2)
    assert abs(val - np.pi) <= 4 * err


def test_radial_halving_panels_converges():
    # on [0.5, 10] at least 6 panels are used: 2 asked become 6, 8 stay 8
    fn = lambda r: np.exp(-r) * np.sin(r)
    assert effective_panels(0.5, 10.0, 2) == 6 and effective_panels(0.5, 10.0, 8) == 8
    coarse, _ = integrate_radial(fn, 0.5, 10.0, QuadratureConfig(radial_order=4, radial_panels=2))
    fine, _ = integrate_radial(fn, 0.5, 10.0, QuadratureConfig(radial_order=4, radial_panels=8))
    oracle, _ = quad(fn, 0.5, 10.0)
    assert abs(fine - oracle) < abs(coarse - oracle)


def _even_bump(x):
    # even in each coordinate, not radial, with an off-axis feature
    return np.exp(-np.sum(x * x, axis=-1) - 0.5 * x[..., 0] ** 4) * np.cos(x[..., 0] * x[..., -1])


@pytest.mark.parametrize("points", [24, 25, 64, 65])
@pytest.mark.parametrize("halfwidths", [(3.0, 2.0), (1.5,), (1.0, 2.0, 0.5)])
def test_folded_box_rule_matches_the_full_rule(points, halfwidths):
    cfg = QuadratureConfig(box_points=points)
    full, full_err = integrate_box(_even_bump, halfwidths, cfg)
    folded, folded_err = integrate_box(_even_bump, halfwidths, cfg, even=True)
    assert folded == pytest.approx(full, rel=1e-14)
    assert folded_err == pytest.approx(full_err, rel=1e-6, abs=1e-14 * abs(full))


def test_folded_box_rule_evaluates_one_orthant():
    rows = []

    def fn(x):
        rows.append(x)
        return _even_bump(x)

    integrate_box(fn, (3.0, 2.0), QuadratureConfig(box_points=25), even=True)
    pts = np.concatenate(rows)
    assert len(pts) == 13**2 + 6**2  # 25 -> 13 nodes per axis, 12 -> 6
    assert np.all(pts >= 0.0)


def test_folded_box_rule_needs_a_symmetric_box():
    with pytest.raises(InvalidParameterError):
        integrate_box(_even_bump, [(-1.0, 2.0), (-1.0, 1.0)], QuadratureConfig(), even=True)
    val, _ = integrate_box(_even_bump, [(-1.0, 1.0), (-2.0, 2.0)], QuadratureConfig(), even=True)
    assert val == pytest.approx(integrate_box(_even_bump, (1.0, 2.0), QuadratureConfig())[0],
                                rel=1e-14)


# -- streamed evaluation -------------------------------------------------------


def _ref_box_pass(fn, bounds, points, even):
    """The box pass before its evaluation was streamed: each chunk of lead
    rows builds all of its points and calls ``fn`` once.  The oracle for
    the blocked pass, which must keep every bit."""
    n = bounds.shape[0]
    xg, wg = _gauss(points)
    if even:
        keep = xg >= 0.0
        xg, wg = xg[keep], np.where(xg[keep] > 0.0, 2.0, 1.0) * wg[keep]
    axes = []
    for i in range(n):
        half = 0.5 * (bounds[i, 1] - bounds[i, 0])
        mid = 0.5 * (bounds[i, 1] + bounds[i, 0])
        axes.append((mid + half * xg, half * wg))
    lead_nodes, lead_w = axes[0]
    rest = axes[1:]
    if rest:
        grids = np.meshgrid(*[a[0] for a in rest], indexing="ij")
        tail = np.stack([g.ravel() for g in grids], axis=-1)
        wtail = rest[0][1]
        for _, w in rest[1:]:
            wtail = np.multiply.outer(wtail, w)
        wtail = wtail.ravel()
    else:
        tail = np.zeros((1, 0))
        wtail = np.ones(1)
    block = max(1, _EVAL_CHUNK // max(1, tail.shape[0]))
    total = 0.0
    for start in range(0, len(lead_nodes), block):
        sel = slice(start, start + block)
        pts = np.empty((len(lead_nodes[sel]), tail.shape[0], n))
        pts[..., 0] = lead_nodes[sel, None]
        pts[..., 1:] = tail[None, :, :]
        vals = fn(pts.reshape(-1, n)).reshape(len(lead_nodes[sel]), -1)
        total += float(lead_w[sel] @ vals @ wtail)
    return total


def _ref_integrate_mc(fn, bounds, samples, seed=0):
    """Monte Carlo before its evaluation was streamed: one draw and one
    call of ``fn`` per chunk."""
    b = _box_bounds(bounds)
    vol = float(np.prod(b[:, 1] - b[:, 0]))
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    remaining = samples
    while remaining > 0:
        m = min(remaining, _EVAL_CHUNK)
        pts = rng.uniform(b[:, 0], b[:, 1], size=(m, b.shape[0]))
        v = np.asarray(fn(pts), dtype=float)
        total += float(v.sum())
        total_sq += float((v * v).sum())
        remaining -= m
    mean = total / samples
    var = max(0.0, total_sq / samples - mean * mean)
    return vol * mean, 3.0 * vol * math.sqrt(var / samples)


def _lopsided(x):
    # neither even nor radial, so a misplaced point changes the sum
    return np.exp(-np.sum(x * x, axis=-1)) * np.cos(x[..., 0] * x[..., -1] + 0.3 * x[..., 0])


def _recording(fn):
    """``fn`` and the (points, writeable) of every call it gets."""
    calls = []

    def wrapped(x):
        calls.append((len(x), x.flags.writeable))
        return fn(x)

    return wrapped, calls


# (bounds, points per axis, folded); the lead axis has ``points`` nodes
# (about half when folded), a chunk ``_EVAL_CHUNK // width`` of them and a
# block ``_BLOCK // width``, where ``width`` is the number of trailing points
BOX_CASES = [
    ((1.5,), 7, False),
    ((1.5,), 8, True),
    ((3.0, 2.0), 500, False),  # chunk 400 and block 32 rows: neither divides 500
    ((3.0, 2.0), 501, True),
    ([(-1.0, 2.0), (-0.5, 1.5)], 501, False),
    ((1.0, 2.0, 0.5), 24, True),
    ((1.0, 2.0, 0.5), 25, False),
    ([(-1.0, 0.5), (0.0, 2.0), (-2.0, -1.0)], 101, False),  # chunk 19 rows
    ((1.0, 0.5, 1.0, 2.0), 24, False),
    ((1.0, 0.5, 1.0, 2.0), 35, True),
    ((1.0, 0.5, 1.0, 2.0), 34, False),  # a lead row of 34**3 points exceeds a block
]


@pytest.mark.parametrize("bounds,points,even", BOX_CASES)
def test_streamed_box_pass_keeps_the_bits_of_whole_chunks(bounds, points, even):
    b = _box_bounds(bounds)
    fn, calls = _recording(_lopsided)
    assert _box_pass(fn, b, points, even) == _ref_box_pass(_lopsided, b, points, even)
    width = ((points + 1) // 2 if even else points) ** (len(b) - 1)
    # at most one block of points per call, or one lead row where a row is larger
    assert max(n for n, _ in calls) <= max(_BLOCK, width)
    assert all(n % width == 0 for n, _ in calls)
    assert not any(writeable for _, writeable in calls)


def test_neither_the_chunk_nor_the_block_divides_the_lead_axis():
    width = 500
    chunk, block = _EVAL_CHUNK // width, _BLOCK // width
    assert (chunk, block) == (400, 32)
    assert 500 % chunk and 500 % block and chunk % block
    fn, calls = _recording(_lopsided)
    _box_pass(fn, _box_bounds((3.0, 2.0)), 500, False)
    # two chunks of 400 and 100 rows, each in blocks of 32 rows and a remainder
    assert [n // width for n, _ in calls] == [32] * 12 + [16] + [32] * 3 + [4]


@pytest.mark.parametrize("samples", [1, _BLOCK + 1, _EVAL_CHUNK + 3 * _BLOCK + 7])
def test_streamed_monte_carlo_keeps_the_draws_and_bits_of_whole_chunks(samples):
    bounds = [(-1.0, 2.0), (-0.5, 0.5), (0.0, 3.0)]
    fn, calls = _recording(_lopsided)
    drawn, whole = [], []
    got = integrate_mc(lambda x: drawn.append(x.copy()) or fn(x), bounds, samples, seed=5)
    want = _ref_integrate_mc(lambda x: whole.append(x) or _lopsided(x), bounds, samples, seed=5)
    assert got == want
    # consecutive draws of a block's rows are the rows of one chunk's draw
    assert np.concatenate(drawn).tobytes() == np.concatenate(whole).tobytes()
    assert max(n for n, _ in calls) <= _BLOCK
    assert not any(writeable for _, writeable in calls)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _cold_sigma(group, norm):
    clear_sphere_measure_cache()
    return sphere_measure(group, norm)


def test_a_cold_sphere_measure_stays_within_a_few_blocks():
    # whole 200,000-point chunks of points and values peaked at 16.8 MB here
    group = parse_group("heis1")
    norm = make_norm(group, "max")
    sm, peak = _traced_peak(lambda: _cold_sigma(group, norm))
    assert sm.method == "smooth"
    assert peak <= 5e6


def test_a_monte_carlo_sphere_measure_keeps_its_bits_at_a_lower_peak(monkeypatch):
    group = parse_group("r:5")
    norm = make_norm(group, "euclid")
    streamed, peak = _traced_peak(lambda: _cold_sigma(group, norm))
    monkeypatch.setattr(calculus, "integrate_mc", _ref_integrate_mc)
    whole, whole_peak = _traced_peak(lambda: _cold_sigma(group, norm))
    assert streamed.method == whole.method == "mc"
    assert (streamed.value, streamed.error) == (whole.value, whole.error)
    assert peak <= 5e6 < whole_peak
