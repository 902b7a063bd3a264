import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgineq import (
    GroupSpec,
    InvalidParameterError,
    UnsupportedGroupError,
    default_norm,
    dilate,
    generic_field,
    nth_radial_derivative,
    parse_group,
)


def test_parse_group_catalog():
    g = parse_group("r:3")
    assert g.name == "r:3"
    assert g.dim == 3
    assert g.weights == (1.0, 1.0, 1.0)
    assert g.homogeneous_dimension == 3.0

    g = parse_group("aniso:1,2")
    assert g.name == "aniso:1,2"
    assert g.dim == 2
    assert g.weights == (1.0, 2.0)
    assert g.homogeneous_dimension == 3.0

    g = parse_group("heis1")
    assert g.name == "heis1"
    assert g.dim == 3
    assert g.weights == (1.0, 1.0, 2.0)
    assert g.homogeneous_dimension == 4.0

    # ids normalize: integer dims and ``%g`` weights, unless ``%g`` would round
    assert parse_group(" r:03 ").name == "r:3"
    g = parse_group("aniso:1.0,2.50")
    assert (g.name, g.weights, g.dim) == ("aniso:1,2.5", (1.0, 2.5), 2)
    assert parse_group("aniso:1.0000001,2").name == "aniso:1.0000001,2"
    assert parse_group("aniso:1,1,2").weights == parse_group("heis1").weights


@pytest.mark.parametrize("text", ["r:1", "r:2", " r:03 ", "r:5", "heis1", "aniso:1,1",
                                  "aniso:1,2", "aniso:1,1,2", "aniso:1,2.5", "aniso:1.0,2.50",
                                  "aniso:1.0000001,2", "aniso:0.1,0.3", "aniso:1e-7,3"])
def test_group_ids_name_their_weights_exactly(text):
    g = parse_group(text)
    again = parse_group(g.name)
    assert (again.name, again.weights) == (g.name, g.weights)
    assert all(type(w) is float for w in g.weights)


@pytest.mark.parametrize("weights", [[1.0, 2.0], [1, 2], (1, 2.0), np.array([1.0, 2.0])])
def test_weights_are_stored_as_a_tuple_of_floats(weights):
    g = GroupSpec("mine", weights)
    assert g.weights == (1.0, 2.0)
    assert all(type(w) is float for w in g.weights)
    assert g == GroupSpec("mine", (1.0, 2.0))
    assert hash(g) == hash(GroupSpec("mine", (1.0, 2.0)))


@pytest.mark.parametrize("bad", ["r:0", "r:-1", "aniso:", "aniso:0,1", "heis2", "blah", "r:x",
                                 "aniso:nan,1", "aniso:inf,1"])
def test_parse_group_rejects(bad):
    with pytest.raises((UnsupportedGroupError, InvalidParameterError)):
        parse_group(bad)


def test_make_group_weight_validation():
    for weights in [(1.0, -2.0), (), (1.0, float("nan")), (float("inf"), 1.0)]:
        with pytest.raises(UnsupportedGroupError):
            GroupSpec("g", weights)
    assert GroupSpec("g", (0.5, 3.0)).dim == 2


def test_dilate_scales_coordinates():
    g = parse_group("aniso:1,2")
    x = np.array([3.0, 5.0])
    y = dilate(g, 2.0, x)
    assert np.allclose(y, [6.0, 20.0])
    # batch of points, scalar lambda
    xs = np.array([[1.0, 1.0], [2.0, -1.0]])
    ys = dilate(g, 0.5, xs)
    assert np.allclose(ys, [[0.5, 0.25], [1.0, -0.25]])


@settings(max_examples=60, deadline=None)
@given(
    lam=st.floats(0.1, 10.0),
    mu=st.floats(0.1, 10.0),
    coords=st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)),
)
def test_dilation_is_a_group_action(lam, mu, coords):
    g = parse_group("heis1")
    x = np.array(coords)
    left = dilate(g, lam, dilate(g, mu, x))
    right = dilate(g, lam * mu, x)
    assert np.allclose(left, right, rtol=1e-12, atol=1e-12)


def _reference_frame_coefficients(group, x):
    """The left-invariant frame ``X_j = sum_i C[..., j, i] d_i``: the
    identity, or on the weights (1, 1, 2) X1 = d1 - (x2/2) d3,
    X2 = d2 + (x1/2) d3, X3 = d3."""
    n = group.dim
    if group.name != "heis1":
        return np.broadcast_to(np.eye(n), x.shape[:-1] + (n, n))
    c = np.zeros(x.shape[:-1] + (3, 3))
    c[..., 0, 0] = 1.0
    c[..., 0, 2] = -0.5 * x[..., 1]
    c[..., 1, 1] = 1.0
    c[..., 1, 2] = 0.5 * x[..., 0]
    c[..., 2, 2] = 1.0
    return c


def _reference_contraction(group, x, grad):
    """``sum_j w_j x_j X_j`` contracted against ``grad``, through the frame."""
    w = group.weight_array()
    v = np.einsum("j,...j,...ji->...i", w, x, _reference_frame_coefficients(group, x))
    return np.einsum("...i,...i->...", v, grad)


def _wavy(x):
    return np.sin(x[..., 0]) * np.exp(0.3 * x[..., -1]) + 0.7 * np.sum(x, axis=-1) ** 2


def _wavy_gradient(x):
    s = 1.4 * np.sum(x, axis=-1)
    out = np.empty_like(x)
    out[...] = s[..., None]
    out[..., 0] += np.cos(x[..., 0]) * np.exp(0.3 * x[..., -1])
    out[..., -1] += 0.3 * np.sin(x[..., 0]) * np.exp(0.3 * x[..., -1])
    return out


@pytest.mark.parametrize("name", ["r:1", "r:3", "aniso:1,2", "heis1"])
def test_euler_contraction_matches_the_frame_bit_for_bit(name):
    """The Euler field sum_i w_i x_i d_i is the frame's dilation generator,
    and R f is formed from it with the same bits as through the frame."""
    group = parse_group(name)
    norm = default_norm(group)
    f = generic_field(_wavy, (0.1, 5.0), gradient=_wavy_gradient)
    x = np.random.default_rng(11).normal(size=(100_000, group.dim))
    got = nth_radial_derivative(group, norm, f, k=1).values(x)
    want = _reference_contraction(group, x, _wavy_gradient(x)) / norm(x)
    assert np.array_equal(got, want)


def test_euler_contraction_central_cancellation():
    # through the frame the d3 coefficient is x1(-x2/2) + x2(x1/2), which
    # cancels exactly; the Euler field has none, and both leave 2 x3
    group = parse_group("heis1")
    norm = default_norm(group)
    x = np.random.default_rng(9).normal(size=(200, 3))
    f = generic_field(lambda y: y[..., 2], (0.1, 5.0),
                      gradient=lambda y: np.broadcast_to([0.0, 0.0, 1.0], y.shape))
    got = nth_radial_derivative(group, norm, f, k=1).values(x)
    assert np.array_equal(got, 2.0 * x[:, 2] / norm(x))
    grad = np.zeros((200, 3))
    grad[:, 2] = 1.0
    assert np.array_equal(_reference_contraction(group, x, grad), 2.0 * x[:, 2])
