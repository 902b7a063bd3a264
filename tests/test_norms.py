import dataclasses
import itertools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgineq import (
    IncompatibleNormError,
    MissingDerivativeError,
    default_norm,
    homogeneity_deviation,
    make_norm,
    parse_group,
)
from hgineq.norms import NORM_KINDS, QuasiNormSpec
from tests.conftest import catalog_pairs


def test_euclidean_matches_numpy():
    g = parse_group("r:3")
    n = make_norm(g, "euclid")
    rng = np.random.default_rng(0)
    x = rng.normal(size=(100, 3))
    assert np.allclose(n(x), np.linalg.norm(x, axis=-1), rtol=1e-14)


def test_koranyi_reference_point():
    g = parse_group("heis1")
    n = make_norm(g, "koranyi")
    # ((x1^2+x2^2)^2 + 16 x3^2)^(1/4): at (0,0,1) -> 16^(1/4) = 2
    assert n(np.array([0.0, 0.0, 1.0])) == pytest.approx(2.0, abs=1e-15)
    assert n(np.array([1.0, 0.0, 0.0])) == pytest.approx(1.0, abs=1e-15)


def test_aniso_power_reference_point():
    g = parse_group("aniso:1,2")
    n = make_norm(g, "aniso")
    # (|x1|^4 + |x2|^2)^(1/4): at (0,3) -> 9^(1/4) = sqrt(3)
    assert n(np.array([0.0, 3.0])) == pytest.approx(np.sqrt(3.0), rel=1e-15)


def test_max_scaled_norm():
    g = parse_group("aniso:1,2")
    n = make_norm(g, "max")
    assert n(np.array([0.5, 4.0])) == pytest.approx(2.0)  # max(0.5, 4^(1/2))
    assert not n.smooth
    with pytest.raises(MissingDerivativeError):
        n.gradient(np.array([[0.5, 4.0]]))


def test_norm_compatibility_rules():
    heis = parse_group("heis1")
    aniso = parse_group("aniso:1,2")
    r3 = parse_group("r:3")
    with pytest.raises(IncompatibleNormError):
        make_norm(aniso, "euclid")  # euclidean needs isotropic weights
    with pytest.raises(IncompatibleNormError):
        make_norm(r3, "koranyi")  # koranyi needs weights (1, 1, 2)
    with pytest.raises(IncompatibleNormError):
        make_norm(aniso, "koranyi")
    # defaults
    assert default_norm(r3).kind == "euclidean"
    assert default_norm(heis).kind == "koranyi"
    assert default_norm(aniso).kind == "aniso_power"
    # keyed by id: the weights of r:2 and heis1 under aniso ids keep aniso_power
    for name in ("aniso:1,1", "aniso:1,1,2"):
        assert default_norm(parse_group(name)).kind == "aniso_power"


def test_a_norm_is_its_kind_and_group():
    assert [f.name for f in dataclasses.fields(QuasiNormSpec)] == ["kind", "group"]
    a, b = make_norm(parse_group("heis1"), "koranyi"), default_norm(parse_group("heis1"))
    assert a is not b and a == b and hash(a) == hash(b)
    assert make_norm(parse_group("aniso:1,1,2"), "koranyi") != a  # another group's name
    assert make_norm(parse_group("heis1"), "max") != make_norm(parse_group("aniso:1,1,2"), "max")


def test_a_spec_hashes_its_value_in_every_process():
    """Specs keep their hash; a pickled copy is rebuilt, so a process with
    another string-hash seed hashes it by its own value."""
    norm = make_norm(parse_group("aniso:1,2"), "max")
    assert hash(norm) == hash((norm.kind, norm.group))
    assert hash(norm.group) == hash((norm.group.name, norm.group.weights))
    script = ("import pickle, sys; n = pickle.loads(sys.stdin.buffer.read()); "
              "print(hash(n) == hash((n.kind, n.group)), "
              "hash(n.group) == hash((n.group.name, n.group.weights)), "
              "{n: 1}[QuasiNormSpec(n.kind, GroupSpec(n.group.name, n.group.weights))])")
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", "from hgineq import GroupSpec, QuasiNormSpec; " + script],
            input=pickle.dumps(norm), capture_output=True, check=True,
            env=dict(os.environ, PYTHONHASHSEED=seed,
                     PYTHONPATH=str(Path(__file__).parents[1] / "src")))
        assert proc.stdout.split() == [b"True", b"True", b"1"]


def test_unknown_norm_kind_is_refused_by_name():
    for make in (lambda: make_norm(parse_group("r:2"), "taxicab"),
                 lambda: QuasiNormSpec("taxicab", parse_group("r:2"))):
        with pytest.raises(IncompatibleNormError, match="unknown norm kind 'taxicab'"):
            make()


def test_koranyi_is_a_rule_on_the_weights():
    heis, twin = parse_group("heis1"), parse_group("aniso:1,1,2")
    a, b = make_norm(heis, "koranyi"), make_norm(twin, "koranyi")
    x = np.random.default_rng(5).normal(size=(1000, 3))
    assert np.array_equal(a(x), b(x))
    assert np.array_equal(a.gradient(x), b.gradient(x))
    assert np.array_equal(a.bounding_halfwidths(1.5), b.bounding_halfwidths(1.5))


@pytest.mark.parametrize("group,norm", list(catalog_pairs()),
                         ids=lambda v: getattr(v, "name", getattr(v, "kind", v)))
def test_homogeneity_catalogwide(group, norm):
    assert homogeneity_deviation(norm, samples=400, seed=12) <= 1e-12


@pytest.mark.parametrize("group,norm", list(catalog_pairs()),
                         ids=lambda v: getattr(v, "name", getattr(v, "kind", v)))
def test_positivity_and_symmetry(group, norm):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(200, group.dim))
    r = np.asarray(norm(x))
    assert np.all(r > 0)
    assert np.allclose(norm(-x), r, rtol=1e-14)
    assert np.asarray(norm(np.zeros(group.dim))) == 0.0


@pytest.mark.parametrize("group,norm", list(catalog_pairs()),
                         ids=lambda v: getattr(v, "name", getattr(v, "kind", v)))
def test_bounding_halfwidths_contain_ball(group, norm):
    rng = np.random.default_rng(6)
    x = rng.normal(size=(500, group.dim))
    r = np.asarray(norm(x))
    hw = norm.bounding_halfwidths(1.0)
    inside = x[r <= 1.0]
    assert np.all(np.abs(inside) <= np.asarray(hw) + 1e-12)


def test_smooth_norm_gradient_matches_fd():
    for gname, nname in (("r:3", "euclid"), ("heis1", "koranyi"), ("aniso:1,2", "aniso")):
        g = parse_group(gname)
        n = make_norm(g, nname)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(40, g.dim))
        x = x[np.asarray(n(x)) > 0.3]
        grad = n.gradient(x)
        h = 1e-6
        for i in range(g.dim):
            dx = np.zeros(g.dim)
            dx[i] = h
            fd = (np.asarray(n(x + dx)) - np.asarray(n(x - dx))) / (2 * h)
            assert np.max(np.abs(grad[:, i] - fd)) < 1e-6


@settings(max_examples=50, deadline=None)
@given(
    lam=st.floats(1e-3, 1e3),
    coords=st.tuples(
        st.floats(-10, 10), st.floats(-10, 10), st.floats(-10, 10)
    ),
)
def test_koranyi_exact_homogeneity(lam, coords):
    g = parse_group("heis1")
    n = make_norm(g, "koranyi")
    x = np.array(coords)
    if np.asarray(n(x)) == 0.0:
        return
    scaled = np.array([lam * x[0], lam * x[1], lam * lam * x[2]])
    assert np.asarray(n(scaled)) == pytest.approx(lam * np.asarray(n(x)), rel=1e-12)


# every (group, kind) pair make_norm accepts on these groups
FOLD_GROUPS = ("r:1", "r:2", "r:3", "heis1", "aniso:1,2")


def _accepted_pairs():
    for gname in FOLD_GROUPS:
        group = parse_group(gname)
        for kind in NORM_KINDS:
            try:
                yield group, make_norm(group, kind)
            except IncompatibleNormError:
                pass


def _wide_points(group, rng, count=20_000):
    """Random points with every coordinate's magnitude spread over e^+-20."""
    x = rng.standard_normal((count, group.dim))
    return x * np.exp(rng.uniform(-20.0, 20.0, size=x.shape))


@pytest.mark.parametrize("group,norm", list(_accepted_pairs()),
                         ids=lambda v: getattr(v, "name", getattr(v, "kind", v)))
def test_norm_is_even_in_each_coordinate_bit_for_bit(group, norm):
    # the sphere measure's box rule evaluates one orthant on this promise
    x = _wide_points(group, np.random.default_rng(11))
    r = norm(x)
    for signs in itertools.product((1.0, -1.0), repeat=group.dim):
        np.testing.assert_array_equal(norm(x * np.array(signs)), r)


def _reference_norm(norm, x):
    """The trailing-axis reductions the column-wise evaluation replaces."""
    w = norm.group.weight_array()
    if norm.kind == "euclidean":
        return np.sqrt(np.sum(x * x, axis=-1))
    if norm.kind == "koranyi":
        u = x[..., 0] ** 2 + x[..., 1] ** 2
        return (u * u + 16.0 * x[..., 2] ** 2) ** 0.25
    if norm.kind == "aniso_power":
        m2 = 2.0 * max(w)
        return np.sum(np.abs(x) ** (m2 / w), axis=-1) ** (1.0 / m2)
    return np.max(np.abs(x) ** (1.0 / w), axis=-1)


@pytest.mark.parametrize("group,norm", list(_accepted_pairs()),
                         ids=lambda v: getattr(v, "name", getattr(v, "kind", v)))
def test_norm_equals_the_trailing_axis_reduction_bit_for_bit(group, norm):
    x = _wide_points(group, np.random.default_rng(12))
    np.testing.assert_array_equal(norm(x), _reference_norm(norm, x))
    batched = x.reshape(40, -1, group.dim)
    np.testing.assert_array_equal(norm(batched), _reference_norm(norm, batched))
    one = norm(x[0])
    assert type(one) is np.float64 and one == _reference_norm(norm, x[0])
