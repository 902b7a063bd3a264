"""Quadrature backends.

Radial integrals use composite Gauss-Legendre panels placed uniformly in
``log r``, which resolves integrands spread over dozens of decades (the
panel count automatically grows with the log-width of the interval).

:func:`sphere_rule` gives nodes on the unit sphere ``{N = 1}`` of a
quasi-norm with cone-measure weights, so that with the radial panels

    int F dx = int_0^inf int_{N=1} F(D_r w) r^(Q-1) dsigma(w) dr

(the polar decomposition of Haar measure, Folland-Stein 1982, Prop. 1.15)
becomes a sum over a grid of radii times sphere nodes.  Its order is tied
to the radial order (:attr:`QuadratureConfig.sphere_order`).

Box integrals use tensor-product Gauss-Legendre with chunked evaluation so
the node set never materializes at once; they compute the sphere measure
(``box_points``) and serve as an independent oracle in the tests.  Monte
Carlo is available for higher dimensions.

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
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import InvalidParameterError

_EVAL_CHUNK = 200_000  # max points per integrand call in box quadrature


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
    mc_samples : int
        Sample count for Monte Carlo fallbacks.
    """

    radial_order: int = 32
    radial_panels: int = 8
    box_points: int = 64
    mc_samples: int = 2_000_000

    def __post_init__(self):
        if self.radial_order < 2 or self.box_points < 2:
            raise InvalidParameterError("quadrature orders must be >= 2")
        if self.radial_panels < 1:
            raise InvalidParameterError("radial_panels must be >= 1")
        if self.mc_samples < 100:
            raise InvalidParameterError("mc_samples must be >= 100")

    @property
    def sphere_order(self):
        """Order of the sphere rule on the polar route: 3/8 of the radial
        order (12 at the default)."""
        return max(2, 3 * self.radial_order // 8)

    def doubled(self):
        return QuadratureConfig(
            2 * self.radial_order, 2 * self.radial_panels, 2 * self.box_points, 4 * self.mc_samples
        )

    def digest(self):
        """Short stable hash of the configuration, recorded in report metadata."""
        blob = json.dumps(
            [self.radial_order, self.radial_panels, self.box_points, self.mc_samples]
        )
        return hashlib.sha1(blob.encode()).hexdigest()[:12]


DEFAULT_CONFIG = QuadratureConfig()

_leggauss_cache = {}


def _gauss(order):
    if order not in _leggauss_cache:
        _leggauss_cache[order] = leggauss(order)
    return _leggauss_cache[order]


def effective_panels(r_lo, r_hi, panels):
    """Panel count actually used on ``[r_lo, r_hi]``: at least ``panels``,
    and at least two panels per e-fold of radius."""
    spread = math.log(r_hi / r_lo)
    return max(panels, int(math.ceil(2.0 * spread)))


def radial_log_nodes(r_lo, r_hi, order, panels):
    """Nodes and weights of panelwise Gauss-Legendre, log-spaced panels."""
    if not 0 < r_lo < r_hi:
        raise InvalidParameterError("need 0 < r_lo < r_hi")
    edges = np.geomspace(r_lo, r_hi, panels + 1)
    xg, wg = _gauss(order)
    lo = edges[:-1, None]
    hi = edges[1:, None]
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (hi + lo) + half * xg).ravel()
    weights = (half * wg).ravel()
    return nodes, weights


#: on a support that touches the origin, the log-spaced panels start at
#: this fraction of the outer radius, behind one plain Gauss-Legendre panel
_ORIGIN_PANEL = 1e-3


def polar_radial_nodes(r_lo, r_hi, order, panels):
    """Radial nodes and weights of the polar route on ``[r_lo, r_hi]``:
    log-spaced panels as in :func:`integrate_radial`, and for ``r_lo = 0``
    one plain Gauss-Legendre panel on ``[0, r_hi * 1e-3]`` in front."""
    if r_lo > 0:
        return radial_log_nodes(r_lo, r_hi, order, effective_panels(r_lo, r_hi, panels))
    r_b = _ORIGIN_PANEL * r_hi
    nodes, weights = radial_log_nodes(r_b, r_hi, order, effective_panels(r_b, r_hi, panels))
    xg, wg = _gauss(order)
    return np.concatenate([0.5 * r_b * (xg + 1.0), nodes]), np.concatenate([0.5 * r_b * wg, weights])


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
    times surface measure.  Tensor Gauss-Legendre on each face."""
    n = len(weights)
    xg, wg = _gauss(order)
    face = np.array(list(itertools.product(xg, repeat=n - 1))).reshape(-1, n - 1)
    wface = np.prod(np.array(list(itertools.product(wg, repeat=n - 1))).reshape(-1, n - 1), axis=1)
    nodes, sigma = [], []
    for i, w in enumerate(weights):
        for sign in (1.0, -1.0):
            nodes.append(np.insert(face, i, sign, axis=1))
            sigma.append(w * wface)
    return np.concatenate(nodes), np.concatenate(sigma)


@functools.lru_cache(maxsize=64)
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
    nodes.flags.writeable = False
    sigma.flags.writeable = False
    return nodes, sigma


def integrate_radial(fn, r_lo, r_hi, config=DEFAULT_CONFIG, auto_panels=True):
    """Integrate ``fn`` (vectorized) over ``[r_lo, r_hi]``.

    Returns ``(value, error)``; the error is the difference against a
    half-order pass on the same panels.
    """
    if not 0 < r_lo < r_hi:
        raise InvalidParameterError("need 0 < r_lo < r_hi")
    panels = (
        effective_panels(r_lo, r_hi, config.radial_panels) if auto_panels else config.radial_panels
    )

    def one_pass(order):
        nodes, weights = radial_log_nodes(r_lo, r_hi, order, panels)
        return float(np.dot(weights, fn(nodes)))

    full = one_pass(config.radial_order)
    coarse = one_pass(max(2, config.radial_order // 2))
    err = abs(full - coarse) + 4.0 * np.finfo(float).eps * abs(full)
    return full, err


def _box_bounds(bounds):
    b = np.asarray(bounds, dtype=float)
    if b.ndim == 1:  # halfwidths -> symmetric box
        b = np.stack([-b, b], axis=-1)
    if b.ndim != 2 or b.shape[1] != 2 or np.any(b[:, 0] >= b[:, 1]):
        raise InvalidParameterError("bounds must be (n, 2) with lo < hi")
    return b


def _box_pass(fn, bounds, points):
    n = bounds.shape[0]
    axes = []
    for i in range(n):
        xg, wg = _gauss(points)
        half = 0.5 * (bounds[i, 1] - bounds[i, 0])
        mid = 0.5 * (bounds[i, 1] + bounds[i, 0])
        axes.append((mid + half * xg, half * wg))
    # chunk over the leading axis so points**n coordinates never
    # materialize at once
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


def integrate_box(fn, bounds, config=DEFAULT_CONFIG):
    """Tensor-product Gauss-Legendre integral of ``fn`` over a box.

    ``bounds`` is either ``(n, 2)`` explicit bounds or a length-``n``
    array of halfwidths for a symmetric box.  Returns ``(value, error)``.
    """
    b = _box_bounds(bounds)
    full = _box_pass(fn, b, config.box_points)
    coarse = _box_pass(fn, b, max(2, config.box_points // 2))
    err = abs(full - coarse) + 4.0 * np.finfo(float).eps * abs(full)
    return full, err


def integrate_mc(fn, bounds, config=DEFAULT_CONFIG, seed=0):
    """Plain Monte Carlo over a box; error is three standard errors."""
    b = _box_bounds(bounds)
    vol = float(np.prod(b[:, 1] - b[:, 0]))
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    remaining = config.mc_samples
    while remaining > 0:
        m = min(remaining, _EVAL_CHUNK)
        pts = rng.uniform(b[:, 0], b[:, 1], size=(m, b.shape[0]))
        v = np.asarray(fn(pts), dtype=float)
        total += float(v.sum())
        total_sq += float((v * v).sum())
        remaining -= m
    n = config.mc_samples
    mean = total / n
    var = max(0.0, total_sq / n - mean * mean)
    return vol * mean, 3.0 * vol * math.sqrt(var / n)
