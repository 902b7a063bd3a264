"""Radial calculus and weighted integration on homogeneous groups.

The central object is the radial derivative

    R f(x) = sum_j w_j x_j (X_j f)(x) / N(x),

the derivative of ``f`` along the dilation orbit through ``x`` at unit
speed in the quasi-norm ``N``: if ``phi(t) = f(D_t xhat)`` with
``xhat = D_{1/N(x)} x``, then ``(R^k f)(x) = phi^(k)(N(x))``.

Three evaluation strategies coexist and are cross-checked in the tests:

- *profile*: for quasi-radial fields ``g(N(x))`` the orbit profile is
  ``g`` itself, so ``R^k f = g^(k)(N(x))`` exactly — for any homogeneous
  quasi-norm, smooth or not.
- *expansion*: for product fields ``g(N(x)) q(x)`` the orbit profile is
  ``sum_m c_m mono_m(xhat) t^{d_m} g(t)`` with weighted degrees ``d_m``,
  differentiated termwise; ``R^k f`` stays a product field of order ``k``.
- *orbit finite differences*: central stencils along the orbit with
  Richardson extrapolation; needs only field values.

Weighted norms ``|| f / N^a ||_p`` use the polar decomposition
``dx = r^(Q-1) dr dsigma(w)`` along dilation orbits.  Quasi-radial fields
collapse to one-dimensional integrals against ``sigma r^(Q-1) dr``, where
``sigma`` is the area of the unit sphere ``{N = 1}``.  Every other field
is integrated on the grid of log-panel radii times the nodes of
:func:`~hgineq.quadrature.sphere_rule`: a product field's values there are
an ``(R x M) @ (M x S)`` product of its orbit profiles and sphere
monomials; any other field is evaluated at the points ``D_r w``.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    InvalidParameterError,
    MissingDerivativeError,
    SingularPointError,
    SingularSupportError,
    UnsupportedDomainError,
)
from .fields import ScalarField, orbit_profiles, product_field, radial_field
from .groups import radial_frame_combination
from .profiles import annulus_cutoff
from .quadrature import (
    DEFAULT_CONFIG,
    integrate_box,
    integrate_mc,
    integrate_radial,
    polar_radial_nodes,
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

_ORBIT_FD_STEP = {1: 1e-4}  # relative step; higher orders use 1e-3
_MODES = ("auto", "analytic", "orbit_fd")


def _compatible(field_norm, norm):
    return (
        field_norm is not None
        and field_norm.kind == norm.kind
        and field_norm.group.name == norm.group.name
    )


def _orbit_fd_values(group, norm, f, k):
    """Values closure for R^k f via central differences along orbits."""
    offsets, coeffs = _ORBIT_FD_STENCILS[k]
    offsets = np.asarray(offsets, dtype=float)
    coeffs = np.asarray(coeffs)
    rel = _ORBIT_FD_STEP.get(k, 1e-3)
    w = group.weight_array()

    def values(x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = x[None] if single else x
        r = np.asarray(norm(pts))
        if np.any(r == 0):
            raise SingularPointError("radial derivative undefined at the origin")
        xhat = pts * r[..., None] ** (-w)

        def stencil_sum(h):
            t = r[None, ...] + offsets.reshape((-1,) + (1,) * r.ndim) * h[None, ...]
            orbit_pts = t[..., None] ** w * xhat[None, ...]
            vals = f.values(orbit_pts.reshape((-1,) + pts.shape[-1:])).reshape(t.shape)
            return np.tensordot(coeffs, vals, axes=(0, 0)) / h**k

        h = rel * r
        d1 = stencil_sum(h)
        d2 = stencil_sum(0.5 * h)
        out = (4.0 * d2 - d1) / 3.0
        return out[0] if single else out

    return values


def _gradient_contraction_values(group, norm, f):
    def values(x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = x[None] if single else x
        r = np.asarray(norm(pts))
        if np.any(r == 0):
            raise SingularPointError("radial derivative undefined at the origin")
        out = radial_frame_combination(group, pts, f.gradient(pts)) / r
        return out[0] if single else out

    return values


def nth_radial_derivative(group, norm, f, k=1, mode="auto"):
    """The field ``R^k f`` with respect to ``norm``.

    ``mode="auto"`` picks the best available strategy (profile stack for
    quasi-radial fields, orbit expansion for product fields, gradient
    contraction for ``k=1``, orbit finite differences otherwise);
    ``"analytic"`` refuses to fall back on finite differences;
    ``"orbit_fd"`` forces them.
    """
    if mode not in _MODES:
        raise InvalidParameterError(f"unknown mode {mode!r}")
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise InvalidParameterError("derivative order must be a nonnegative int")
    if k == 0:
        return f
    tag = f"R^{k}[{f.field_id}]"
    if mode != "orbit_fd":
        if f.is_quasi_radial and _compatible(f.norm, norm):
            return radial_field(
                f.profile.derivative(k), f.norm, support=f.support, field_id=tag
            )
        if f.structure == "product" and _compatible(f.norm, norm):
            return product_field(f.profile, f.poly, f.norm, support=f.support, field_id=tag,
                                 order=f.order + k)
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
    )


def radial_derivative(group, norm, f, x, mode="analytic"):
    """Pointwise ``R f`` at ``x`` (shape ``(n,)`` or batched ``(..., n)``)."""
    if mode not in ("analytic", "orbit_fd"):
        raise InvalidParameterError(f"unknown mode {mode!r}")
    x = np.asarray(x, dtype=float)
    if np.any(np.asarray(norm(x)) == 0):
        raise SingularPointError("radial derivative undefined at the origin")
    return nth_radial_derivative(group, norm, f, 1, mode=mode).values(x)


# -- integration -------------------------------------------------------------


def haar_integral(group, integrand, config=None, box=None, annulus=None, norm=None):
    """Integrate a vectorized integrand against Haar (= Lebesgue) measure.

    The domain must be bounded: pass explicit ``box`` bounds (halfwidths
    or ``(n, 2)``), or an ``annulus = (r0, r1)`` together with the norm
    that measures it.
    """
    config = config or DEFAULT_CONFIG
    if box is None:
        if annulus is None or norm is None:
            raise UnsupportedDomainError("need box bounds, or annulus plus norm")
        box = norm.bounding_halfwidths(annulus[1])
    return integrate_box(integrand, box, config)


@dataclass(frozen=True)
class SphereMeasure:
    """Area of the unit sphere ``{N = 1}`` w.r.t. the cone measure induced
    by Haar measure and the dilations."""

    value: float
    error: float
    method: str
    group: str
    norm: str
    annulus: tuple
    config_digest: str

    def to_dict(self):
        return {
            "value": self.value,
            "error": self.error,
            "method": self.method,
            "group": self.group,
            "norm": self.norm,
            "annulus": list(self.annulus),
            "config_digest": self.config_digest,
        }


_SIGMA_CACHE = {}

#: resolution floors for the smooth sphere-measure integrand, per dimension
_SMOOTH_MIN_POINTS = {1: 1024, 2: 384, 3: 192}


def clear_sphere_measure_cache():
    _SIGMA_CACHE.clear()


def _cache_path(cache_dir, key):
    safe = re.sub(r"[^A-Za-z0-9._-]", "-", "_".join(str(k) for k in key))
    return os.path.join(cache_dir, f"sigma_{safe}.json")


def sphere_measure(group, norm, annulus=(1.0, 2.0), config=None, method="auto", cache_dir=None):
    """Compute ``sigma = lim Q vol({a < N <= b}) / (b^Q - a^Q)``.

    Methods
    -------
    ``smooth``     integrates a C^inf radial plateau weight both over the
                   group (box quadrature) and radially; their ratio is
                   ``sigma``.  Spectrally accurate; the default through
                   dimension 4.
    ``indicator``  integrates the annulus indicator directly (robust but
                   slowly converging; useful as a cross-check).
    ``mc``         Monte Carlo on the indicator; the default beyond
                   dimension 4.

    Results are memoized per process; pass ``cache_dir`` (or set
    ``HGINEQ_CACHE_DIR``) to persist across runs.
    """
    config = config or DEFAULT_CONFIG
    a, b = float(annulus[0]), float(annulus[1])
    if not 0 < a < b:
        raise InvalidParameterError("annulus must satisfy 0 < a < b")
    n = group.dim
    if method == "auto":
        method = "smooth" if n <= 4 else "mc"
    if method not in ("smooth", "indicator", "mc"):
        raise InvalidParameterError(f"unknown sphere-measure method {method!r}")
    key = (group.name, norm.kind, f"{a:g}", f"{b:g}", method, config.digest())
    if key in _SIGMA_CACHE:
        return _SIGMA_CACHE[key]
    cache_dir = cache_dir or os.environ.get("HGINEQ_CACHE_DIR")
    path = None
    if cache_dir:
        path = _cache_path(cache_dir, key)
        try:
            with open(path) as fh:
                data = json.load(fh)
            sm = SphereMeasure(
                data["value"], data["error"], method, group.name, norm.kind, (a, b),
                config.digest(),
            )
            _SIGMA_CACHE[key] = sm
            return sm
        except (OSError, KeyError, ValueError):
            pass

    q_dim = group.homogeneous_dimension
    pts = config.box_points
    if method == "smooth":
        # the plateau-weight integrand is C^inf, so tensor Gauss-Legendre
        # converges spectrally; a modest per-dimension floor buys ~1e-7
        # relative accuracy at sub-second cost through dimension 3
        pts = max(pts, _SMOOTH_MIN_POINTS.get(n, 0))
    # keep tensor grids below ~20M nodes in higher dimensions
    pts = min(pts, max(2, int(round(2e7 ** (1.0 / n)))))
    box_cfg = replace(config, box_points=pts)
    halfwidths = norm.bounding_halfwidths(b)

    if method == "smooth":
        s = (b / a) ** 0.25
        weight = annulus_cutoff(a, a * s, b / s, b)

        def box_integrand(x):
            return weight(norm(x))

        num, num_err = integrate_box(box_integrand, halfwidths, box_cfg)
        den, den_err = integrate_radial(
            lambda r: weight(r) * r ** (q_dim - 1.0), a, b, config
        )
        value = num / den
        error = abs(num_err / den) + abs(value * den_err / den)
    else:

        def indicator(x):
            r = norm(x)
            return ((r > a) & (r <= b)).astype(float)

        if method == "indicator":
            vol, vol_err = integrate_box(indicator, halfwidths, box_cfg)
        else:
            vol, vol_err = integrate_mc(indicator, halfwidths, config)
        scale = q_dim / (b**q_dim - a**q_dim)
        value = scale * vol
        error = scale * vol_err

    sm = SphereMeasure(float(value), float(error), method, group.name, norm.kind, (a, b),
                       config.digest())
    _SIGMA_CACHE[key] = sm
    if path:
        try:
            os.makedirs(cache_dir, exist_ok=True)
            with open(path, "w") as fh:
                json.dump(sm.to_dict(), fh)
        except OSError:
            pass
    return sm


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


def _grid_values(group, norm, f, r, nodes):
    """``f(D_r w)`` at radii ``r`` (R,) and sphere nodes ``w`` (S, n): (R, S)."""
    if f.structure == "product" and _compatible(f.norm, norm):
        mono = f.poly.monomials(nodes) * np.asarray(f.poly.coeffs)
        degs = f.poly.weighted_degrees(group.weights)
        return orbit_profiles(f.profile, degs, f.order, r) @ mono.T
    pts = r[:, None, None] ** group.weight_array() * nodes[None]
    return np.asarray(f.values(pts.reshape(-1, group.dim))).reshape(len(r), len(nodes))


def _polar_integral(group, norm, f, parts, p, config):
    """``int |sum_i c_i g_i N^(-a_i)|^p dx`` over the support of ``f`` for
    ``parts = [(c_i, g_i, a_i), ...]`` (fields derived from ``f``), on the
    grid of radial nodes times sphere nodes; returns ``(value, error)``.

    The error is the difference against one pass at half the radial and
    half the sphere order.
    """
    r_lo, r_hi = _radial_range(f, norm)
    q_dim = group.homogeneous_dimension

    def one_pass(order, sphere_order):
        r, wr = polar_radial_nodes(r_lo, r_hi, order, config.radial_panels)
        nodes, sigma = sphere_rule(norm, sphere_order)
        acc = 0.0
        for c, g, a in parts:
            acc = acc + c * r[:, None] ** (-a) * _grid_values(group, norm, g, r, nodes)
        return float((wr * r ** (q_dim - 1.0)) @ np.abs(acc) ** p @ sigma)

    full = one_pass(config.radial_order, config.sphere_order)
    coarse = one_pass(max(2, config.radial_order // 2), max(2, config.sphere_order // 2))
    err = abs(full - coarse) + 4.0 * np.finfo(float).eps * abs(full)
    return max(full, 0.0), err


def weighted_lp_norm(group, norm, f, weight, p, config=None):
    """``|| f / N^weight ||_p`` over the group; returns ``(value, error)``.

    Quasi-radial fields (matching the active norm) use the exact polar
    factorization ``sigma * int |g|^p r^(Q - 1 - weight p) dr``; anything
    else is integrated on the polar grid of radial and sphere nodes.
    """
    config = config or DEFAULT_CONFIG
    if not p >= 1.0:
        raise InvalidParameterError("p must satisfy p >= 1")
    if f.support is None:
        raise UnsupportedDomainError("field must declare a support annulus")
    r0, r1 = f.support
    if r0 <= 0.0 and weight * p > 0:
        raise SingularSupportError("support touches the origin under a singular weight")
    q_dim = group.homogeneous_dimension

    if f.is_quasi_radial and _compatible(f.norm, norm):
        sm = sphere_measure(group, norm)
        expo = q_dim - 1.0 - weight * p
        prof = f.profile

        def integrand(r):
            return np.abs(prof(r)) ** p * r**expo

        raw, raw_err = integrate_radial(integrand, r0, r1, config)
        raw = max(raw, 0.0)
        total = sm.value * raw
        total_err = sm.value * raw_err + sm.error * raw
    else:
        total, total_err = _polar_integral(group, norm, f, [(1.0, f, weight)], p, config)

    value = total ** (1.0 / p)
    if value > 0:
        error = value * total_err / (p * total)
    else:
        error = total_err ** (1.0 / p)
    return value, error


def weighted_combo_l2(group, norm, f, terms, config=None, mode="auto"):
    """``|| sum_i c_i R^{k_i} f / N^{a_i} ||_2``; returns ``(value, error)``.

    ``terms`` is an iterable of ``(c_i, k_i, a_i)``.  Used by the exact
    second-order remainder identities, whose cross terms cannot be reduced
    to single weighted norms.
    """
    config = config or DEFAULT_CONFIG
    terms = [(complex(c), int(k), float(a)) for c, k, a in terms]
    if not terms:
        raise InvalidParameterError("need at least one term")
    if f.support is None:
        raise UnsupportedDomainError("field must declare a support annulus")
    r0, r1 = f.support
    q_dim = group.homogeneous_dimension

    if f.is_quasi_radial and _compatible(f.norm, norm) and mode != "orbit_fd":
        kmax = max(k for _, k, _ in terms)
        sm = sphere_measure(group, norm)
        prof = f.profile

        def integrand(r):
            stack = prof.derivatives(r, kmax)
            acc = np.zeros(r.shape, dtype=complex)
            for c, k, a in terms:
                acc += c * stack[k] * r ** (-a)
            return np.abs(acc) ** 2 * r ** (q_dim - 1.0)

        raw, raw_err = integrate_radial(integrand, r0, r1, config)
        raw = max(raw, 0.0)
        total = sm.value * raw
        total_err = sm.value * raw_err + sm.error * raw
    else:
        if r0 <= 0.0:
            raise SingularSupportError("support touches the origin under a singular weight")
        parts = [
            (c, nth_radial_derivative(group, norm, f, k, mode=mode), a) for c, k, a in terms
        ]
        total, total_err = _polar_integral(group, norm, f, parts, 2.0, config)

    value = math.sqrt(total)
    error = total_err / (2.0 * value) if value > 0 else math.sqrt(total_err)
    return value, error
