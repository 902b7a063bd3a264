"""Quadrature backends.

Radial integrals use composite Gauss-Legendre panels placed uniformly in
``log r``, which resolves integrands spread over dozens of decades (the
panel count automatically grows with the log-width of the interval).
Node sets are memoized as read-only arrays (:mod:`hgineq.memo`), so every
integral over the same interval at the same order sees the same array object.
The polar route's full and coarse radial sets are stored once per interval
and order, as one paired array (the full set, then the coarse set at half
the order) of which the two sets are slices: a pass over both takes the
pair, a pass over one set takes its slice.  The radial node arrays, pairs
and slices alike, are also registered while they live
(:func:`is_radial_node_set`), so a consumer can tell such an array, whose
values never change, from any other read-only array.

:func:`sphere_rule` gives nodes on the unit sphere ``{N = 1}`` of a
quasi-norm with cone-measure weights, so that with the radial panels

    int F dx = int_0^inf int_{N=1} F(D_r w) r^(Q-1) dsigma(w) dr

(the polar decomposition of Haar measure, Folland-Stein 1982, Prop. 1.15)
becomes a sum over a grid of radii times sphere nodes.  Its order is tied
to the radial order (:attr:`QuadratureConfig.sphere_order`).

Box integrals use tensor-product Gauss-Legendre; they compute the sphere
measure (``box_points``) and serve as an independent oracle in the tests.
An integrand even in each coordinate is evaluated on one orthant of the
rule (``integrate_box(..., even=True)``).  Monte Carlo is available for
higher dimensions.  Both sum their values per chunk of ``_EVAL_CHUNK``
points, which fixes the rounding, and evaluate the integrand per block of
at most ``_BLOCK`` points (or one lead row of the box rule, where a row is
larger), written into the chunk's values: no node set, chunk of points or
its temporaries materializes at once.  The integrand gets each block as a
read-only array that is rewritten for the next block, so it must neither
keep nor write it.

Every ``integrate_*`` routine returns ``(value, error)`` where ``error``
is an a-posteriori estimate obtained by re-integrating at roughly half the
resolution and taking the difference — deliberately conservative for the
spectrally convergent Gauss rules.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import operator
import weakref
from dataclasses import dataclass, fields

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InvalidParameterError
from .memo import bounded, read_only

#: points per summation of a box or Monte Carlo chunk; its size fixes the rounding
_EVAL_CHUNK = 200_000

#: points per integrand call: a block and its temporaries stay in L2
_BLOCK = 1 << 14


@dataclass(frozen=True)
class QuadratureConfig:
    """Resolution knobs shared by all quadrature routines.

    Attributes
    ----------
    radial_order : int
        Gauss-Legendre order per radial panel.
    radial_panels : int
        Minimum number of log-spaced radial panels (grows automatically
        with the log-width of the integration interval).
    box_points : int
        Tensor-product points per axis for box integrals (the sphere
        measure).
    """

    radial_order: int = 32
    radial_panels: int = 8
    box_points: int = 64

    def __post_init__(self):
        for f in fields(self):  # every knob is a count; numpy integers become ints
            try:
                object.__setattr__(self, f.name, operator.index(getattr(self, f.name)))
            except TypeError:
                raise InvalidParameterError(f"{f.name} must be an integer") from None
        if self.radial_order < 2 or self.box_points < 2:
            raise InvalidParameterError("quadrature orders must be >= 2")
        if self.radial_panels < 1:
            raise InvalidParameterError("radial_panels must be >= 1")

    @property
    def sphere_order(self):
        """Order of the sphere rule on the polar route: 3/8 of the radial
        order (12 at the default)."""
        return max(2, 3 * self.radial_order // 8)

    def doubled(self):
        return QuadratureConfig(2 * self.radial_order, 2 * self.radial_panels, 2 * self.box_points)

    def digest(self):
        """Short stable hash of the configuration, recorded in report metadata."""
        return self._digest

    @functools.cached_property
    def _digest(self):
        blob = json.dumps([self.radial_order, self.radial_panels, self.box_points])
        return hashlib.sha1(blob.encode()).hexdigest()[:12]


DEFAULT_CONFIG = QuadratureConfig()


@bounded(64)
def _gauss(order):
    return tuple(map(read_only, leggauss(order)))


def effective_panels(r_lo, r_hi, panels):
    """Panel count actually used on ``[r_lo, r_hi]``: at least ``panels``,
    and at least two panels per e-fold of radius.  A ratio ``r_hi / r_lo``
    beyond double range is refused."""
    spread = math.log(r_hi / r_lo)
    if not math.isfinite(spread):
        raise InvalidParameterError("r_hi / r_lo exceeds double range")
    return max(panels, int(math.ceil(2.0 * spread)))


#: every live radial node array of the memoized rules, by id
_RADIAL_NODE_SETS = weakref.WeakValueDictionary()


def is_radial_node_set(r):
    """Whether ``r`` is a node array returned by :func:`radial_log_nodes`
    or :func:`polar_radial_nodes`: read-only and never changed."""
    return _RADIAL_NODE_SETS.get(id(r)) is r


def _frozen(nodes, weights):
    """``(nodes, weights)`` made read-only, the nodes registered."""
    _RADIAL_NODE_SETS[id(nodes)] = read_only(nodes)
    return nodes, read_only(weights)


def _log_panels(r_lo, r_hi, order, panels):
    """The nodes and weights of :func:`radial_log_nodes`, not memoized."""
    if not 0 < r_lo < r_hi:
        raise InvalidParameterError("need 0 < r_lo < r_hi")
    edges = np.geomspace(r_lo, r_hi, panels + 1)
    xg, wg = _gauss(order)
    lo = edges[:-1, None]
    hi = edges[1:, None]
    half = 0.5 * (hi - lo)
    return (0.5 * (hi + lo) + half * xg).ravel(), (half * wg).ravel()


@bounded(64)
def radial_log_nodes(r_lo, r_hi, order, panels):
    """Nodes and weights of panelwise Gauss-Legendre, log-spaced panels.

    Memoized: a repeated call returns the same read-only arrays, which
    lets :mod:`~hgineq.calculus` recognise a node set by identity.
    """
    return _frozen(*_log_panels(r_lo, r_hi, order, panels))


#: on a support that touches the origin, the log-spaced panels start at
#: this fraction of the outer radius, behind one plain Gauss-Legendre panel
_ORIGIN_PANEL = 1e-3


def _polar_panels(r_lo, r_hi, order, panels):
    """The nodes and weights of one polar node set, not memoized."""
    if r_lo > 0:
        return _log_panels(r_lo, r_hi, order, effective_panels(r_lo, r_hi, panels))
    r_b = _ORIGIN_PANEL * r_hi
    nodes, weights = _log_panels(r_b, r_hi, order, effective_panels(r_b, r_hi, panels))
    xg, wg = _gauss(order)
    return (np.concatenate([0.5 * r_b * (xg + 1.0), nodes]),
            np.concatenate([0.5 * r_b * wg, weights]))


@bounded(32)
def polar_radial_pair(r_lo, r_hi, order, panels):
    """Both radial node sets of the polar route on ``[r_lo, r_hi]`` in one
    array: ``(pair, full, coarse)``, each ``(nodes, weights)``.

    ``full`` is the set at ``order``, ``coarse`` the set at
    ``max(2, order // 2)``; each has :func:`effective_panels` log-spaced
    panels, and for ``r_lo = 0`` one plain Gauss-Legendre panel on
    ``[0, r_hi * 1e-3]`` in front.  ``pair`` is ``full`` followed by
    ``coarse``, and the two sets are its leading and trailing slices, so
    each node set is stored once.  Memoized; all three are read-only and
    registered (:func:`is_radial_node_set`).
    """
    sets = [_polar_panels(r_lo, r_hi, o, panels) for o in (order, max(2, order // 2))]
    nodes, weights = _frozen(*(np.concatenate(arrays) for arrays in zip(*sets)))
    split = len(sets[0][0])
    return ((nodes, weights), _frozen(nodes[:split], weights[:split]),
            _frozen(nodes[split:], weights[split:]))


def polar_radial_nodes(r_lo, r_hi, order, panels):
    """Radial nodes and weights of the polar route on ``[r_lo, r_hi]`` at
    ``order``: the full set of :func:`polar_radial_pair`, so a repeated
    call returns the same read-only arrays."""
    return polar_radial_pair(r_lo, r_hi, order, panels)[1]


def unit_sphere_rule(n, order):
    """Nodes ``(S, n)`` and weights ``(S,)`` of a product rule for surface
    measure on the Euclidean unit sphere of ``R^n``.

    ``n = 1``: the two points ``+-1``; ``n = 2``: the trapezoid rule at
    ``2 * order`` angles; ``n = 3``: Gauss-Legendre in ``cos(theta)`` of the
    last coordinate times the circle rule; ``n >= 4``: Gauss-Legendre in
    ``theta`` with weight ``sin(theta)**(n-2)`` times the rule one dimension
    down.  Every rule is symmetric under each reflection ``u_i -> -u_i``.
    """
    if n == 1:
        return np.array([[1.0], [-1.0]]), np.ones(2)
    if n == 2:
        phi = np.pi * np.arange(2 * order) / order
        return np.stack([np.cos(phi), np.sin(phi)], axis=-1), np.full(2 * order, np.pi / order)
    sub, wsub = unit_sphere_rule(n - 1, order)
    xg, wg = _gauss(order)
    if n == 3:
        t, wt = xg, wg
    else:
        theta = 0.5 * np.pi * (xg + 1.0)
        t, wt = np.cos(theta), 0.5 * np.pi * wg * np.sin(theta) ** (n - 2)
    s = np.sqrt(1.0 - t * t)
    nodes = np.concatenate([
        s[:, None, None] * sub[None], np.broadcast_to(t[:, None, None], (len(t), len(sub), 1))
    ], axis=-1)
    return nodes.reshape(-1, n), np.outer(wt, wsub).ravel()


def _cube_face_rule(weights, order):
    """The unit sphere of ``max_i |x_i|^(1/w_i)`` is the boundary of the cube
    ``[-1, 1]^n``; the cone measure on the face ``x_i = +-1`` is ``w_i``
    times surface measure.  Tensor Gauss-Legendre on each face; for
    ``n = 1`` each face is the single point ``+-1``, of weight ``w_1``."""
    n = len(weights)
    xg, wg = _gauss(order)
    shape = (len(xg) ** (n - 1), n - 1)
    face = np.array(list(itertools.product(xg, repeat=n - 1))).reshape(shape)
    wface = np.prod(np.array(list(itertools.product(wg, repeat=n - 1))).reshape(shape), axis=1)
    nodes, sigma = [], []
    for i, w in enumerate(weights):
        for sign in (1.0, -1.0):
            nodes.append(np.insert(face, i, sign, axis=1))
            sigma.append(w * wface)
    return np.concatenate(nodes), np.concatenate(sigma)


@bounded(64)
def sphere_rule(norm, order):
    """Nodes ``w_j`` on the unit sphere ``{N = 1}`` of ``norm`` and their
    cone-measure weights ``sigma_j``: ``(nodes (S, n), weights (S,))``.

    For a smooth norm, a rule on the Euclidean sphere is pulled back along
    dilation orbits through ``x = D_s(A u)`` with
    ``A = diag(norm.bounding_halfwidths(1))``: the node ``A u`` moves to
    ``w = D_(1/N(Au)) A u`` and its weight is multiplied by
    ``J(u) = det A * sum_i w_i u_i^2 * N(Au)^(-Q)``.  Scaling by ``A`` first
    keeps ``J`` nearly constant (the unit ball's box is the unit cube's
    image).  ``max_scaled`` uses :func:`_cube_face_rule` instead.
    """
    w = norm.group.weight_array()
    if norm.kind == "max_scaled":
        nodes, sigma = _cube_face_rule(w, order)
    else:
        a = norm.bounding_halfwidths(1.0)
        u, wu = unit_sphere_rule(len(w), order)
        x = a * u
        r = norm(x)
        nodes = x * r[:, None] ** (-w)
        sigma = wu * np.prod(a) * ((u * u) @ w) * r ** (-w.sum())
    return read_only(nodes), read_only(sigma)


def integrate_radial(fn, r_lo, r_hi, config=DEFAULT_CONFIG):
    """Integrate ``fn`` (vectorized) over ``[r_lo, r_hi]`` on the full set
    of :func:`polar_radial_pair`.

    Returns ``(value, error)``; the error is the difference against a
    pass on the pair's coarse set, at half the order on the same panels.
    ``fn`` is called once on each set.
    """
    if not 0 < r_lo < r_hi:
        raise InvalidParameterError("need 0 < r_lo < r_hi")
    _, *sets = polar_radial_pair(r_lo, r_hi, config.radial_order, config.radial_panels)
    full, coarse = (float(np.dot(weights, fn(nodes))) for nodes, weights in sets)
    err = abs(full - coarse) + 4.0 * np.finfo(float).eps * abs(full)
    return full, err


def _box_bounds(bounds):
    b = np.asarray(bounds, dtype=float)
    if b.ndim == 1:  # halfwidths -> symmetric box
        b = np.stack([-b, b], axis=-1)
    if b.ndim != 2 or b.shape[1] != 2 or np.any(b[:, 0] >= b[:, 1]):
        raise InvalidParameterError("bounds must be (n, 2) with lo < hi")
    return b


def _box_pass(fn, bounds, points, even):
    n = bounds.shape[0]
    xg, wg = _gauss(points)
    if even:
        # the rule is exactly mirror-symmetric, so each mirrored pair of
        # nodes becomes its nonnegative node at twice the weight; the
        # centre node of an odd rule is exactly 0 and keeps its weight
        keep = xg >= 0.0
        xg, wg = xg[keep], np.where(xg[keep] > 0.0, 2.0, 1.0) * wg[keep]
    axes = []
    for i in range(n):
        half = 0.5 * (bounds[i, 1] - bounds[i, 0])
        mid = 0.5 * (bounds[i, 1] + bounds[i, 0])
        axes.append((mid + half * xg, half * wg))
    # a chunk of lead rows is one summation ``lead_w @ vals @ wtail``, which
    # fixes the rounding; a block of lead rows is one call of ``fn``, which
    # bounds the memory: the points come from one template whose trailing
    # coordinates are written once, and each block rewrites the lead one
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
    width = len(tail)
    chunk = max(1, _EVAL_CHUNK // width)
    rows = max(1, _BLOCK // width)
    template = np.empty((min(rows, len(lead_nodes)), width, n))
    template[..., 1:] = tail
    points = read_only(template.view())
    vals = np.empty((min(chunk, len(lead_nodes)), width))
    total = 0.0
    for start in range(0, len(lead_nodes), chunk):
        lead = lead_nodes[start:start + chunk]
        for i in range(0, len(lead), rows):
            m = len(lead[i:i + rows])
            template[:m, :, 0] = lead[i:i + m, None]
            vals[i:i + m] = fn(points[:m].reshape(-1, n)).reshape(m, width)
        total += float(lead_w[start:start + chunk] @ vals[:len(lead)] @ wtail)
    return total


def integrate_box(fn, bounds, config=DEFAULT_CONFIG, even=False):
    """Tensor-product Gauss-Legendre integral of ``fn`` over a box.

    ``bounds`` is either ``(n, 2)`` explicit bounds or a length-``n``
    array of halfwidths for a symmetric box.  Returns ``(value, error)``.

    ``even=True`` states that ``fn`` is even in each coordinate separately,
    ``fn(..., -x_i, ...) == fn(..., x_i, ...)``, as is any function of a
    catalog quasi-norm.  The rule is then folded onto the orthant
    ``x >= 0``: the same nodes and weights, each mirrored pair evaluated
    once, so ``fn`` sees about ``2**-n`` of the points and the result
    differs from the unfolded rule only in summation order.  The box must
    be symmetric about the origin.

    ``fn`` maps read-only points ``(k, n)`` to ``k`` real values and is
    called on blocks of at most ``_BLOCK`` points (or one row of the lead
    axis); it must not keep or write them.  The blocks fill chunks of
    ``_EVAL_CHUNK`` points, each summed as one product with the weights,
    so the result does not depend on the block size.
    """
    b = _box_bounds(bounds)
    if even and np.any(b[:, 0] != -b[:, 1]):
        raise InvalidParameterError("even=True needs a box symmetric about the origin")
    full = _box_pass(fn, b, config.box_points, even)
    coarse = _box_pass(fn, b, max(2, config.box_points // 2), even)
    err = abs(full - coarse) + 4.0 * np.finfo(float).eps * abs(full)
    return full, err


def integrate_mc(fn, bounds, samples, seed=0):
    """Plain Monte Carlo over a box with ``samples`` points; error is three
    standard errors.

    The points are drawn and ``fn`` is called in read-only blocks of at
    most ``_BLOCK`` rows (``fn`` must not keep or write them); consecutive
    draws are the rows of one draw, and the values are summed per chunk of
    ``_EVAL_CHUNK`` points, so the result does not depend on the block
    size."""
    b = _box_bounds(bounds)
    vol = float(np.prod(b[:, 1] - b[:, 0]))
    rng = np.random.default_rng(seed)
    vals = np.empty(min(samples, _EVAL_CHUNK))
    total = 0.0
    total_sq = 0.0
    remaining = samples
    while remaining > 0:
        v = vals[:min(remaining, _EVAL_CHUNK)]
        for i in range(0, len(v), _BLOCK):
            pts = rng.uniform(b[:, 0], b[:, 1], size=(len(v[i:i + _BLOCK]), b.shape[0]))
            pts.flags.writeable = False
            v[i:i + len(pts)] = fn(pts)
        total += float(v.sum())
        total_sq += float((v * v).sum())
        remaining -= len(v)
    mean = total / samples
    var = max(0.0, total_sq / samples - mean * mean)
    return vol * mean, 3.0 * vol * math.sqrt(var / samples)
