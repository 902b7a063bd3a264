from dataclasses import fields

import numpy as np
import pytest
from scipy.integrate import quad

from hgineq import (
    InvalidParameterError,
    QuadratureConfig,
    integrate_box,
    integrate_mc,
    integrate_radial,
)
from hgineq.quadrature import effective_panels


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
