"""Radial calculus and weighted integration on homogeneous groups.

The central object is the radial derivative

    R f(x) = sum_i w_i x_i (d_i f)(x) / N(x),

the derivative of ``f`` along the dilation orbit through ``x`` at unit
speed in the quasi-norm ``N``: if ``phi(t) = f(D_t xhat)`` with
``xhat = D_{1/N(x)} x``, then ``(R^k f)(x) = phi^(k)(N(x))``.  The sum is
the Euler field of the dilations, which on a graded group equals the frame
combination ``sum_j w_j x_j X_j`` (see :mod:`hgineq.groups`).

Three evaluation strategies coexist and are cross-checked in the tests:

- *profile*: a product field ``g(N(x)) q(x)`` has the orbit profile
  ``sum_m c_m mono_m(xhat) t^{d_m} g(t)`` (weighted degrees ``d_m``),
  differentiated termwise; a quasi-radial field is the case ``q = 1``,
  where ``R^k f = g^(k)(N(x))`` for any homogeneous quasi-norm, smooth or
  not.  ``R^k f`` is the same field at order ``k``.
- *gradient contraction*: ``R f`` by the sum above, for a field with a gradient.
- *orbit finite differences*: central stencils along the orbit with
  Richardson extrapolation; needs only field values.

Weighted norms ``|| f / N^a ||_p`` and the combinations
``|| sum_i c_i R^(k_i) f / N^(a_i) ||_2`` take one route,
:func:`_polar_integral`: the polar decomposition
``dx = r^(Q-1) dr dsigma(w)`` summed over log-panel radii times a sphere
rule.  An integrand made of quasi-radial fields is constant on the sphere,
so its rule is one node of weight ``sigma``, the area of ``{N = 1}``, and
the full and the coarse pass take one sweep (:func:`_one_node_pass`): the
integrand is formed once on the paired radial node set of
:func:`~hgineq.quadrature.polar_radial_pair` (the full set, then the
coarse set), and each pass is a dot product over its set's slice.
Every other integrand takes the nodes of
:func:`~hgineq.quadrature.sphere_rule`.  There a product field is an
``(R x M) @ (M x S)`` product of its orbit profiles and sphere monomials,
and a field made by orbit finite differences along the orbits of the
integration norm samples its base at ``D_t w`` for the stencil radii
``t = r + o h`` (``h`` proportional to ``r``); the pointwise closure
(:func:`_orbit_fd_values`) shares the stencil.  Any other field is
evaluated at the points ``D_r w``.  Both opaque routes call the field in
cache-sized blocks of radii (:func:`_on_orbits`), and the integrand is
formed one block of radii at a time (:func:`_grid_blocks`) into one real
``(R, S)`` array.  Besides that array and the kept samples, a pass holds
the values of one block per part: at most ``_BLOCK`` points, counting each
point of an orbit-FD stencil (one row of radii where a row is larger).
Every sum keeps its order, so the blocks do not change the result.
What one field's norms, orders and reports share is memoized
(:mod:`hgineq.memo`).  A field is in its own norm when its norm equals the
integration norm as a value: the same kind on an equal group, id and
weights.  A norm is integrated only on a group with its own group's
weights (:func:`_own_group`).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .constants import validate_finite
from .errors import (
    IncompatibleNormError,
    InvalidParameterError,
    MissingDerivativeError,
    SingularPointError,
    SingularSupportError,
    UnsupportedDomainError,
)
from .fields import ScalarField, _profile_field, _single_point_aware, orbit_profiles
from .memo import Memo, bounded, read_only
from .profiles import annulus_cutoff
from .quadrature import (
    _BLOCK,
    DEFAULT_CONFIG,
    integrate_box,
    integrate_mc,
    integrate_radial,
    polar_radial_pair,
    sphere_rule,
)

_ORBIT_FD_STENCILS = {
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
    5: ((-3, -2, -1, 1, 2, 3), (-0.5, 2.0, -2.5, 2.5, -2.0, 0.5)),
    6: ((-3, -2, -1, 0, 1, 2, 3), (1.0, -6.0, 15.0, -20.0, 15.0, -6.0, 1.0)),
}

#: the rounding allowance of a quadrature pass, relative to its value
_ROUNDING = 4.0 * np.finfo(float).eps

_ORBIT_FD_STEP = {1: 1e-4}  # relative step; higher orders use 1e-3
_MODES = ("auto", "analytic", "orbit_fd")


def _compatible(field_norm, norm):
    """Whether a field built in ``field_norm`` is measured in its own norm:
    the same value ``(kind, group)``, most often the very same object."""
    return field_norm is norm or field_norm == norm


def _own_group(group, norm):
    """Refuse to integrate ``norm`` on a group with other dilation weights
    than its own: the polar route needs ``N(D_t x) = t N(x)`` under
    ``group``'s dilations, and the weights are all it depends on."""
    if not (norm.group is group or norm.group.weights == group.weights):
        raise IncompatibleNormError(
            f"norm {norm.kind!r} on {norm.group.name} {norm.group.weights} cannot be "
            f"integrated on {group.name} {group.weights}")


def _orbit_fd(k, r, sample):
    """``R^k`` at radii ``r`` by central differences along the orbits, with
    Richardson extrapolation.  ``sample(t)`` gives the base field at radii
    ``t`` (shape ``(O,) + r.shape``, one row per stencil offset) on the
    orbits of ``r``: shape ``t.shape`` plus any trailing axes."""
    offsets, coeffs = _ORBIT_FD_STENCILS[k]
    offsets = np.asarray(offsets, dtype=float).reshape((-1,) + (1,) * r.ndim)
    coeffs = np.asarray(coeffs)

    def stencil_sum(h):
        vals = sample(r + offsets * h)
        h = h.reshape(h.shape + (1,) * (vals.ndim - 1 - h.ndim))
        return np.tensordot(coeffs, vals, axes=(0, 0)) / h**k

    h = _ORBIT_FD_STEP.get(k, 1e-3) * r
    d1 = stencil_sum(h)
    d2 = stencil_sum(0.5 * h)
    return (4.0 * d2 - d1) / 3.0


def _radii(norm, pts):
    r = np.asarray(norm(pts))
    if np.any(r == 0):
        raise SingularPointError("radial derivative undefined at the origin")
    return r


def _orbit_fd_values(group, norm, f, k):
    """Values closure for R^k f via central differences along orbits: the
    orbit through ``x`` is ``t -> D_t w`` with ``w = D_(1/N(x)) x``."""
    w = group.weight_array()

    def values(pts):
        r = _radii(norm, pts)
        xhat = pts * r[..., None] ** (-w)

        def sample(t):
            orbit_pts = t[..., None] ** w * xhat[None, ...]
            return f.values(orbit_pts.reshape((-1,) + pts.shape[-1:])).reshape(t.shape)

        return _orbit_fd(k, r, sample)

    return _single_point_aware(values)


def _gradient_contraction_values(group, norm, f):
    w = group.weight_array()

    def values(pts):
        r = _radii(norm, pts)
        return np.einsum("...i,...i->...", w * pts, f.gradient(pts)) / r

    return _single_point_aware(values)


#: derived fields: the few orders a report grid takes of the last few fields
_DERIVED = Memo(8)  # (id(f), k) -> (f, R^k f)


def nth_radial_derivative(group, norm, f, k=1, mode="auto"):
    """The field ``R^k f`` with respect to ``norm``.

    ``mode="auto"`` picks the best available strategy (the profile field
    at order ``f.order + k`` in the field's own norm, gradient contraction
    for ``k=1``, orbit finite differences otherwise); ``"analytic"``
    refuses to fall back on finite differences; ``"orbit_fd"`` forces them.
    """
    if mode not in _MODES:
        raise InvalidParameterError(f"unknown mode {mode!r}")
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool) or k < 0:
        raise InvalidParameterError("derivative order must be a nonnegative int")
    if k == 0:
        return f
    tag = f"R^{k}[{f.field_id}]"
    if mode != "orbit_fd":
        if f.structure in ("radial", "product") and _compatible(f.norm, norm):
            ids = (id(f), k)
            return (_DERIVED.hit(ids) or _DERIVED.keep(ids, (f, _profile_field(
                f.profile, f.poly, f.norm, f.support, tag, f.order + k))))[1]
        if f.gradient is not None and k == 1:
            return ScalarField(
                values=_gradient_contraction_values(group, norm, f),
                support=f.support,
                field_id=tag,
                structure="generic",
                norm=f.norm,
            )
        if mode == "analytic":
            raise MissingDerivativeError(
                f"no analytic route for R^{k} of field {f.field_id!r}"
            )
    if k not in _ORBIT_FD_STENCILS:
        raise InvalidParameterError(
            f"orbit finite differences support k <= {max(_ORBIT_FD_STENCILS)}"
        )
    return ScalarField(
        values=_orbit_fd_values(group, norm, f, k),
        support=f.support,
        field_id=tag,
        structure="generic",
        norm=f.norm,
        orbit_fd=(f, k, norm),
    )


def radial_derivative(group, norm, f, x, mode="analytic"):
    """Pointwise ``R f`` at ``x`` (shape ``(n,)`` or batched ``(..., n)``)."""
    if mode not in ("analytic", "orbit_fd"):
        raise InvalidParameterError(f"unknown mode {mode!r}")
    x = np.asarray(x, dtype=float)
    _radii(norm, x)  # refuses the origin before any field is built
    return nth_radial_derivative(group, norm, f, 1, mode=mode).values(x)


# -- integration -------------------------------------------------------------


@dataclass(frozen=True)
class SphereMeasure:
    """Area of the unit sphere ``{N = 1}`` w.r.t. the cone measure induced
    by Haar measure and the dilations; ``method`` records the route."""

    value: float
    error: float
    method: str
    group: str
    norm: str
    config_digest: str

    def to_dict(self):
        return asdict(self)


#: the reference annulus ``a < N <= b`` whose volume gives ``sigma``
_SIGMA_ANNULUS = (1.0, 2.0)

#: resolution floors for the smooth sphere-measure integrand, per dimension
_SMOOTH_MIN_POINTS = {1: 1024, 2: 384, 3: 192}

#: Monte Carlo samples of the annulus volume beyond dimension 4
_MC_SAMPLES = 2_000_000


def clear_sphere_measure_cache():
    """Empty sigma's memo only (:func:`~hgineq.memo.clear_caches` empties all)."""
    _sphere_measure.cache_clear()


def sphere_measure(group, norm, config=None):
    """Compute ``sigma = Q vol({a < N <= b}) / (b^Q - a^Q)`` on the
    reference annulus ``(a, b) = (1, 2)``.

    One route per dimension, recorded as ``method``:

    ``smooth``  through dimension 4: integrates a C^inf radial plateau
                weight both over the group (box quadrature) and radially;
                their ratio is ``sigma``.  The integrand is a function of
                ``N(x)``, which every catalog norm makes even in each
                coordinate, so the box rule is folded onto one orthant
                (``integrate_box(..., even=True)``): the same nodes,
                weights and error estimate at ``2**-n`` of the norm
                evaluations.
    ``mc``      beyond dimension 4: Monte Carlo on ``1{a < N(x) <= b}``.

    Memoized per process by value: group, norm (kind, group) and configuration.
    """
    _own_group(group, norm)
    return _sphere_measure(group, norm, config or DEFAULT_CONFIG)


@bounded(64)
def _sphere_measure(group, norm, config):
    n = group.dim
    method = "smooth" if n <= 4 else "mc"
    a, b = _SIGMA_ANNULUS
    q_dim = group.homogeneous_dimension
    halfwidths = norm.bounding_halfwidths(b)
    if method == "smooth":
        # the plateau-weight integrand is C^inf, so tensor Gauss-Legendre
        # converges spectrally; a modest per-dimension floor buys ~1e-7
        # relative accuracy at sub-second cost through dimension 3
        pts = max(config.box_points, _SMOOTH_MIN_POINTS.get(n, 0))
        # keep tensor grids below ~20M nodes in higher dimensions
        pts = min(pts, max(2, int(round(2e7 ** (1.0 / n)))))
        s = (b / a) ** 0.25
        weight = annulus_cutoff(a, a * s, b / s, b)

        def box_integrand(x):
            return weight(norm(x))

        num, num_err = integrate_box(box_integrand, halfwidths,
                                     replace(config, box_points=pts), even=True)
        den, den_err = integrate_radial(
            lambda r: weight(r) * r ** (q_dim - 1.0), a, b, config
        )
        value = num / den
        error = abs(num_err / den) + abs(value * den_err / den)
    else:

        def in_annulus(x):
            r = norm(x)
            return ((r > a) & (r <= b)).astype(float)

        vol, vol_err = integrate_mc(in_annulus, halfwidths, _MC_SAMPLES)
        scale = q_dim / (b**q_dim - a**q_dim)
        value = scale * vol
        error = scale * vol_err

    return SphereMeasure(float(value), float(error), method, group.name, norm.kind,
                         config.digest())


#: stacks: the paired node set of two fields (a field's one-node passes
#: share one stack on the pair; its sphere passes take one on each set)
_STACKS = Memo(2)  # ids -> (root profile, node array, read-only stack)


def _profile_stack(prof, r, order):
    """``prof.derivatives(r, order)``, sliced from a stack of the root
    profile (:meth:`~hgineq.profiles.RadialProfile.root`) that is kept
    for the last few (root, node array) pairs, matched by identity.

    ``R^k f`` then reuses ``f``'s stack on the same memoized node set, and
    so does every later norm of ``f``.  Entry ``j`` of a stack depends
    only on entries ``<= j``, so a slice equals a fresh evaluation bit for
    bit; asking for a higher order than is kept recomputes the entry.
    """
    root, k = prof.root()
    need = k + order
    ids = (id(root), id(r))
    entry = _STACKS.hit(ids)
    if entry is None or len(entry[-1]) <= need:
        entry = _STACKS.keep(ids, (root, r, read_only(root.derivatives(r, need))))
    return entry[-1][k:need + 1]


def _radial_range(f, norm):
    """An interval of ``N`` that holds the support of ``f``.

    A support measured in another norm ``M`` is widened through the two
    unit balls' boxes: every catalog norm grows with each ``|x_i|``, so
    ``N <= r1 * N(corner of M's box)`` on ``{M <= r1}`` and
    ``M < r0`` wherever ``N < r0 / M(corner of N's box)``.
    """
    r0, r1 = f.support
    other = f.norm
    if other is None or _compatible(other, norm):
        return r0, r1
    return (r0 / float(other(norm.bounding_halfwidths(1.0))),
            r1 * float(norm(other.bounding_halfwidths(1.0))))


#: samples: an opaque field's values on the full and the coarse grid of two fields
_SAMPLES = Memo(4)  # ids -> ((values callable, radial nodes, sphere nodes), read-only samples)


def _row_blocks(count, width):
    """Slices of ``count`` rows of ``width`` points each, at most ``_BLOCK``
    points (or one row) per slice."""
    step = max(1, _BLOCK // width)
    return [slice(i, i + step) for i in range(0, count, step)]


def _put(out, shape, i, block):
    """``block`` written to rows ``i:`` of ``out``, an array of ``shape``
    made at the first block and widened to the result type of every block
    so far, the type ``np.concatenate`` gives its result."""
    dtype = block.dtype if out is None else np.result_type(out, block)
    if out is None or dtype != out.dtype:
        wider = np.empty(shape, dtype)
        if out is not None:
            wider[:i] = out[:i]
        out = wider
    out[i:i + len(block)] = block
    return out


def _on_orbits(group, f, t, nodes):
    """``f(D_t w)`` at radii ``t`` (any shape) and sphere nodes ``w``
    ``(S, n)``: shape ``t.shape + (S,)``.  ``f.values`` is called on blocks
    of whole rows of radii, at most ``_BLOCK`` points (or one row) each, and
    a block's points are built from its own radii: no array holds them all.
    A block is filled one coordinate at a time, ``t^(w_j)`` of each row
    times node column ``j``, so each multiply runs along a whole column.
    Each block's values are written to one output array."""
    radii = t.reshape(-1, 1)
    columns = np.ascontiguousarray(nodes.T)
    out = None
    for rows in _row_blocks(len(radii), len(nodes)):
        tw = radii[rows] ** group.weight_array()
        pts = np.empty((len(tw), len(nodes), group.dim))
        for j, column in enumerate(columns):
            np.multiply(tw[:, j, None], column, out=pts[:, :, j])
        vals = np.asarray(f.values(pts.reshape(-1, group.dim)))
        out = _put(out, (len(radii), len(nodes)), rows.start, vals.reshape(len(tw), len(nodes)))
    return out.reshape(t.shape + (len(nodes),))


def _samples(group, f, r, nodes):
    """:func:`_on_orbits` on a grid, kept for the last few (values
    callable, radial nodes, sphere nodes) triples, matched by identity:
    the norms of one field on one node set share one evaluation."""
    ids = (id(f.values), id(r), id(nodes))
    return (_SAMPLES.hit(ids) or _SAMPLES.keep(ids, (
        (f.values, r, nodes), read_only(_on_orbits(group, f, r, nodes)))))[1]


def _radius_blocks(fields, r, nodes):
    """Slices of the radii ``r`` for a grid of ``fields`` on ``nodes``: at
    most ``_BLOCK`` points per block (or one row), where a field made by
    orbit finite differences counts each point of its stencil."""
    stencil = max(len(_ORBIT_FD_STENCILS[f.orbit_fd[1]][0]) if f.orbit_fd else 1
                  for f in fields)
    return _row_blocks(len(r), stencil * len(nodes))


def _grid_blocks(group, norm, f, r, nodes, blocks):
    """``f(D_r w)`` at radii ``r`` (R,) and sphere nodes ``w`` (S, n), one
    ``(rows, S)`` array for each slice of radii in ``blocks``, in turn.

    A product field is a matrix product of its orbit profiles and sphere
    monomials, one block of profile rows at a time.  A field made by orbit
    finite differences along the orbits of ``norm`` samples its base at the
    stencil radii around each block of radii, on the same sphere nodes.
    Any other field is evaluated at the points once per grid
    (:func:`_samples`), and its blocks are views of those values.
    """
    route = _grid_key(norm, f)[0]
    if route == "product":
        mono = f.poly.monomials(nodes) * np.asarray(f.poly.coeffs)
        degs = f.poly.weighted_degrees(group.weights)
        stack = _profile_stack(f.profile, r, f.order)
        profiles = orbit_profiles(f.profile, degs, f.order, r, stack)
        return (profiles[s] @ mono.T for s in blocks)
    if route == "orbit_fd":
        base, k, _ = f.orbit_fd
        return (_orbit_fd(k, r[s], lambda t: _on_orbits(group, base, t, nodes)) for s in blocks)
    samples = _samples(group, f, r, nodes)
    return (samples[s] for s in blocks)


def _grid_values(group, norm, f, r, nodes):
    """The blocks of :func:`_grid_blocks` in one ``(R, S)`` array."""
    blocks = _radius_blocks([f], r, nodes)
    out = None
    for rows, vals in zip(blocks, _grid_blocks(group, norm, f, r, nodes, blocks)):
        out = _put(out, (len(r), len(nodes)), rows.start, vals)
    return out


def _combine(parts, values, column, a0, p):
    """``|sum_i c_i column^(a0 - a_i) v_i|^p`` for ``parts = [(c_i, g_i,
    a_i), ...]`` and the values ``v_i`` of the ``g_i``."""
    acc = None
    for (c, _, a), vals in zip(parts, values):
        if a != a0:
            vals = column ** (a0 - a) * vals
        if c != 1:
            vals = c * vals
        acc = vals if acc is None else acc + vals
    return np.abs(acc) ** p


#: integrands: a product field's f and R f on the full and the coarse set
_INTEGRANDS = Memo(4)  # key -> ((held, radial nodes, sphere nodes), read-only integrand)


def _grid_key(norm, g):
    """``(route, held, key)``: how :func:`_grid_blocks` builds ``g``'s grid,
    the object whose id ``key`` holds, and what it builds it from besides
    the nodes.  Quasi-radial (sampled) and product fields in their own norm
    take ``"radial"`` / ``"product"``, keyed by root profile, orders,
    polynomial and norm; an orbit-FD field along ``norm`` ``"orbit_fd"``, by
    its base's values, order and norm; any other field ``"values"``, by its
    values callable.  A quasi-radial field on ``g^(k)`` at ``order`` j is
    ``g^(k + j)(N)``, keyed by ``k + j`` alone; a product field keeps the
    two apart, as ``R^j [g^(k)(N) q]`` is not ``R^(k + j) [g(N) q]``."""
    if g.structure in ("radial", "product") and _compatible(g.norm, norm):
        root, k = g.profile.root()
        orders = (k + g.order, 0) if g.poly is None else (k, g.order)
        return g.structure, root, (id(root), *orders, g.poly, g.norm)
    if g.orbit_fd is not None and _compatible(g.orbit_fd[2], norm):
        base, k, orbit_norm = g.orbit_fd
        return "orbit_fd", base.values, (id(base.values), k, orbit_norm)
    return "values", g.values, (id(g.values),)


def _integrand(norm, parts, p, r, sphere, build):
    """``build()``, the integrand ``|sum_i c_i r^(a_0 - a_i) g_i|^p`` on
    radial nodes ``r`` times ``sphere`` (one node if ``None``) without the
    weight ``r^(Q - 1 - a_0 p)``.  A one-part integrand is kept per
    :func:`_grid_key`, coefficient, ``p`` and node arrays, so the norms of
    one field at one ``p`` share it whatever their weights."""
    if len(parts) > 1:
        return build()
    c, g, _ = parts[0]
    _, held, grid = _grid_key(norm, g)
    key = (grid, c, p, id(r), id(sphere))
    return (_INTEGRANDS.hit(key) or _INTEGRANDS.keep(key, (
        (held, r, sphere), read_only(build()))))[1]


def _one_node_pass(parts, sets, a0, p, expo):
    """Both passes of the one-node route, ``(full, coarse)``, in one sweep.

    ``sets`` is :func:`~hgineq.quadrature.polar_radial_pair`'s ``(pair,
    full, coarse)``.  The integrand (:func:`_integrand`) is formed once on
    the pair from one stack per part's root; each pass is a dot product
    over its set's slice.  Every step is elementwise in ``r``, so each
    slice holds the values a pass on its set alone gives.
    """
    (r, wr), (full_r, _), _ = sets
    # every part is quasi-radial in its own norm
    vals = _integrand(parts[0][1].norm, parts, p, r, None, lambda: _combine(parts, [
        _profile_stack(g.profile, r, g.order)[-1] for _, g, _ in parts], r, a0, p)) * r**expo
    split = len(full_r)
    return float(np.dot(wr[:split], vals[:split])), float(np.dot(wr[split:], vals[split:]))


def _sphere_pass(group, norm, parts, nodes, a0, p, expo, sphere_order):
    """A pass on radial ``nodes`` times the sphere rule of ``sphere_order``."""
    r, wr = nodes
    sphere, sigma = sphere_rule(norm, sphere_order)

    def integrand():
        blocks = _radius_blocks([g for _, g, _ in parts], r, sphere)
        grids = [_grid_blocks(group, norm, g, r, sphere, blocks) for _, g, _ in parts]
        acc = np.empty((len(r), len(sphere)))
        for rows, values in zip(blocks, zip(*grids)):
            acc[rows] = _combine(parts, values, r[rows, None], a0, p)
        return acc

    acc = _integrand(norm, parts, p, r, sphere, integrand)
    return float((wr * r**expo) @ acc @ sigma)


def _polar_integral(group, norm, f, parts, p, config):
    """``int |sum_i c_i g_i N^(-a_i)|^p dx`` over the support of ``f`` for
    ``parts = [(c_i, g_i, a_i), ...]`` (fields derived from ``f``), on
    radial nodes times a sphere rule; returns ``(value, error)``.  The
    support may touch the origin unless some ``a_i p > 0``.

    The radial nodes are :func:`~hgineq.quadrature.polar_radial_pair`'s.
    If every ``g_i`` is quasi-radial in ``norm``, the rule is one node of
    weight ``sigma`` and the values are profile stacks, and both passes
    take one sweep over the paired nodes (:func:`_one_node_pass`);
    otherwise it is :func:`~hgineq.quadrature.sphere_rule`, a pass per
    radial set and sphere order, and the integrand is formed one block of
    radii at a time (:func:`_grid_blocks`) into one real ``(R, S)`` array.
    ``r^(-a_0)`` is folded into ``r^(Q - 1 - a_0 p)``, which keeps a lone
    part finite on radii spread over many decades.  The error is the
    difference against the pass at half the orders, plus sigma's error
    times the value.
    """
    _own_group(group, norm)
    if f.support is None:
        raise UnsupportedDomainError("field must declare a support annulus")
    if f.support[0] <= 0.0 and any(a * p > 0 for _, _, a in parts):
        raise SingularSupportError("support touches the origin under a singular weight")
    r_lo, r_hi = _radial_range(f, norm)
    a0 = parts[0][2]
    expo = group.homogeneous_dimension - 1.0 - a0 * p
    sets = polar_radial_pair(r_lo, r_hi, config.radial_order, config.radial_panels)
    for _, g, _ in parts:
        if not (g.is_quasi_radial and _compatible(g.norm, norm)):
            s = config.sphere_order
            full = _sphere_pass(group, norm, parts, sets[1], a0, p, expo, s)
            coarse = _sphere_pass(group, norm, parts, sets[2], a0, p, expo, max(2, s // 2))
            scale, scale_err = 1.0, 0.0
            break
    else:
        sm = sphere_measure(group, norm)
        full, coarse = _one_node_pass(parts, sets, a0, p, expo)
        scale, scale_err = sm.value, sm.error
    err = abs(full - coarse) + _ROUNDING * abs(full)
    full = max(full, 0.0)
    return scale * full, scale * err + scale_err * full


#: norms: those of the last two fields, matched by their grid key's object
_NORMS = Memo(2)  # id(held) -> (held, {key: (value, error)})


def weighted_lp_norm(group, norm, f, weight, p, config=None):
    """``|| f / N^weight ||_p`` over the group, the one-part case of
    :func:`_polar_integral`; returns ``(value, error)``.

    The norms are kept for the last two fields, matched by the object of
    their :func:`_grid_key`, keyed by every other input of the integral, so
    the checks of one field measure each norm once."""
    if not p >= 1.0:
        raise InvalidParameterError("p must satisfy p >= 1")
    config = config or DEFAULT_CONFIG
    _, held, grid = _grid_key(norm, f)
    memo = (_NORMS.hit(id(held)) or _NORMS.keep(id(held), (held, {})))[1]
    key = (grid, f.support, f.norm, group, norm, weight, p, config.radial_order,
           config.radial_panels)
    hit = memo.get(key)
    if hit is not None:
        return hit
    # after the lookup: the memo never holds a refused weight or p
    validate_finite(weight=weight, p=p)
    total, total_err = _polar_integral(group, norm, f, [(1.0, f, weight)], p, config)
    value = total ** (1.0 / p)
    error = value * (total_err / total) / p if value > 0 else total_err ** (1.0 / p)
    memo[key] = (value, error)
    return value, error


def weighted_combo_l2(group, norm, f, terms, config=None, mode="auto", fields=None):
    """``|| sum_i c_i R^{k_i} f / N^{a_i} ||_2``; returns ``(value, error)``.

    ``terms`` is an iterable of ``(c_i, k_i, a_i)``.  Used by the exact
    second-order remainder identities, whose cross terms cannot be reduced
    to single weighted norms.  ``R^{k_i} f`` is taken in ``mode``, or from
    ``fields``, a mapping ``k -> R^k f`` the caller has already built.
    """
    fields = fields or {}
    parts = [(complex(c), fields[k] if k in fields else
              nth_radial_derivative(group, norm, f, int(k), mode=mode), float(a))
             for c, k, a in terms]
    for c, _, a in parts:
        validate_finite(coefficient=c.real, imaginary_coefficient=c.imag, weight=a)
    if not parts:
        raise InvalidParameterError("need at least one term")
    total, total_err = _polar_integral(group, norm, f, parts, 2.0, config or DEFAULT_CONFIG)
    value = math.sqrt(total)
    error = total_err / (2.0 * value) if value > 0 else math.sqrt(total_err)
    return value, error
