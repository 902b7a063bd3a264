"""Scalar fields on a homogeneous group.

A :class:`ScalarField` bundles vectorized ``values`` / ``gradient``
callables with structural metadata the calculus layer exploits:

- ``radial``   fields ``f = g(N(x))`` built from a :class:`RadialProfile`
               and a quasi-norm; radial derivatives and weighted norms of
               these reduce to exact one-dimensional operations.
- ``product``  fields ``f = g(N(x)) * q(x)`` with a polynomial factor
               ``q``, and their radial derivatives ``R^k f``: along the
               orbit through ``w`` on ``{N = 1}``, ``R^k f(D_r w) =
               sum_m c_m w^(e_m) d^k/dr^k [r^(d_m) g(r)]`` with the
               weighted degrees ``d_m`` of ``q`` (see :func:`orbit_profiles`).
- ``generic``  plain callables with a declared support annulus.

All fields vanish identically outside their declared support ``(r0, r1)``
(measured in the field's own norm), which is what makes weighted-norm
integrands safe near the origin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from .errors import InvalidParameterError, MissingDerivativeError, UnsupportedDomainError
from .norms import QuasiNormSpec
from .profiles import RadialProfile


@dataclass(frozen=True)
class PolyFactor:
    """Polynomial ``q(x) = sum_m c_m x^(e_m)`` in multi-index notation.

    ``exponents`` is a tuple of integer multi-indices; ``coeffs`` the
    matching (possibly complex) coefficients.
    """

    exponents: tuple
    coeffs: tuple

    def __post_init__(self):
        if len(self.exponents) != len(self.coeffs) or not self.exponents:
            raise InvalidParameterError("need matching, nonempty exponents and coeffs")
        width = {len(e) for e in self.exponents}
        if len(width) != 1:
            raise InvalidParameterError("all multi-indices must have equal length")
        if any(int(v) != v or v < 0 for e in self.exponents for v in e):
            raise InvalidParameterError("exponents must be nonnegative integers")
        object.__setattr__(self, "exponents", tuple(tuple(int(v) for v in e) for e in self.exponents))
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))

    @property
    def dim(self):
        return len(self.exponents[0])

    def monomials(self, x):
        """Values of each monomial at ``x``; shape ``(..., M)``.

        Powers come from repeated multiplication, one coordinate at a time
        (``**`` on float arrays costs about 15 times as much)."""
        x = np.asarray(x, dtype=float)
        e = np.asarray(self.exponents)  # (M, n) ints
        out = np.ones(x.shape[:-1] + (len(e),))
        for i in range(e.shape[1]):
            power = np.ones(x.shape[:-1])
            for d in range(1, e[:, i].max() + 1):
                power = power * x[..., i]
                out[..., e[:, i] == d] *= power[..., None]
        return out

    def __call__(self, x):
        return self.monomials(x) @ np.asarray(self.coeffs)

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        for e, c in zip(self.exponents, self.coeffs):
            for i, ei in enumerate(e):
                if ei == 0:
                    continue
                shifted = np.asarray(e, dtype=np.int64)
                shifted[i] -= 1
                out[..., i] += c * ei * np.prod(x**shifted, axis=-1)
        return out

    def weighted_degrees(self, weights):
        """Dilation degree of each monomial: ``d_m = sum_i e_mi * w_i``."""
        w = np.asarray(weights, dtype=float)
        return np.array([float(np.dot(e, w)) for e in self.exponents])


@dataclass(frozen=True)
class ScalarField:
    """A scalar function on the group with structural metadata.

    ``values`` maps ``(..., n) -> (...)``; ``gradient`` (may be ``None``)
    maps ``(..., n) -> (..., n)``.  ``support`` is an annulus in the
    field's own ``norm``.  A product field with ``order = k`` is
    ``R^k [g(N) q]``.
    """

    values: callable = field(repr=False)
    support: tuple
    field_id: str = ""
    structure: str = "generic"
    gradient: callable = field(default=None, repr=False)
    norm: QuasiNormSpec = field(default=None, repr=False)
    profile: RadialProfile = field(default=None, repr=False)
    poly: PolyFactor = None
    order: int = 0

    def __post_init__(self):
        if self.support is not None:
            lo, hi = self.support
            if not (0.0 <= lo < hi):
                raise InvalidParameterError("support must satisfy 0 <= lo < hi")
            object.__setattr__(self, "support", (float(lo), float(hi)))

    @property
    def is_quasi_radial(self):
        return self.structure == "radial"


def _single_point_aware(fn):
    def wrapped(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            out = fn(x[None])
            return out[0]
        return fn(x)

    return wrapped


def _profile_dtype(prof, support):
    r_probe = 1.0 if support is None else float(np.sqrt(support[0] * support[1]) or support[1] / 2)
    return np.asarray(prof.derivatives(np.array([r_probe]), 0)).dtype


def radial_field(profile, norm, support=None, field_id=""):
    """Field ``f(x) = g(N(x))`` from a profile ``g`` and quasi-norm ``N``.

    ``support`` defaults to the profile's own support and must be known
    one way or the other.
    """
    sup = support if support is not None else profile.support
    if sup is None:
        raise UnsupportedDomainError("radial field needs a support annulus")
    r0, r1 = float(sup[0]), float(sup[1])
    if not 0.0 < r0 < r1:
        raise InvalidParameterError("support must satisfy 0 < r0 < r1")
    dtype = _profile_dtype(profile, (r0, r1))

    def values(x):
        r = norm(x)
        out = np.zeros(r.shape, dtype=dtype)
        m = (r >= r0) & (r <= r1)
        if np.any(m):
            out[m] = profile(r[m])
        return out

    grad = None
    if norm.smooth:

        def grad(x):
            r = norm(x)
            out = np.zeros(x.shape, dtype=dtype)
            m = (r >= r0) & (r <= r1)
            if np.any(m):
                gp = profile.derivatives(r[m], 1)[1]
                out[m] = gp[..., None] * norm.gradient(x[m])
            return out

    return ScalarField(
        values=_single_point_aware(values),
        gradient=None if grad is None else _single_point_aware(grad),
        support=(r0, r1),
        field_id=field_id or f"radial[{profile.label}]",
        structure="radial",
        norm=norm,
        profile=profile,
    )


def _falling(d, i):
    out = 1.0
    for j in range(i):
        out *= d - j
    return out


def orbit_profiles(profile, degs, k, r):
    """``H_m(r) = d^k/dr^k [r^(d_m) g(r)]`` for a profile ``g`` and each
    weighted degree ``d_m``; shape ``r.shape + (M,)``.

    Along the orbit through ``w`` on the unit sphere, the product field
    ``R^k [g(N) q]`` takes the values ``sum_m c_m w^(e_m) H_m(r)``.
    """
    stack = profile.derivatives(r, k)
    return np.stack([
        sum(comb(k, i) * _falling(d, i) * r ** (d - i) * stack[k - i] for i in range(k + 1))
        for d in degs
    ], axis=-1)


def product_field(profile, poly, norm, support=None, field_id="", order=0):
    """Field ``f(x) = g(N(x)) * q(x)`` with polynomial ``q``, or with
    ``order = k`` its radial derivative ``R^k f`` (which has no gradient)."""
    if poly.dim != norm.group.dim:
        raise InvalidParameterError("polynomial dimension does not match the group")
    sup = support if support is not None else profile.support
    if sup is None:
        raise UnsupportedDomainError("product field needs a support annulus")
    r0, r1 = float(sup[0]), float(sup[1])
    if not 0.0 < r0 < r1:
        raise InvalidParameterError("support must satisfy 0 < r0 < r1")
    dtype = np.result_type(_profile_dtype(profile, (r0, r1)), np.asarray(poly.coeffs).dtype)
    degs = poly.weighted_degrees(norm.group.weights)

    def values(x):
        r = norm(x)
        out = np.zeros(r.shape, dtype=dtype)
        m = (r >= r0) & (r <= r1)
        if np.any(m):
            if order == 0:
                out[m] = profile(r[m]) * poly(x[m])
            else:
                # x^e = r^d w^e on the orbit through w = D_(1/r) x
                rs = r[m]
                terms = poly.monomials(x[m]) * rs[:, None] ** -degs
                out[m] = (terms * orbit_profiles(profile, degs, order, rs)) @ np.asarray(
                    poly.coeffs)
        return out

    grad = None
    if norm.smooth and order == 0:

        def grad(x):
            r = norm(x)
            out = np.zeros(x.shape, dtype=dtype)
            m = (r >= r0) & (r <= r1)
            if np.any(m):
                xs = x[m]
                stack = profile.derivatives(r[m], 1)
                out[m] = (stack[1] * poly(xs))[..., None] * norm.gradient(xs) + stack[0][
                    ..., None
                ] * poly.gradient(xs)
            return out

    return ScalarField(
        values=_single_point_aware(values),
        gradient=None if grad is None else _single_point_aware(grad),
        support=(r0, r1),
        field_id=field_id or f"product[{profile.label}]",
        structure="product",
        norm=norm,
        profile=profile,
        poly=poly,
        order=order,
    )


def generic_field(values, support, norm=None, gradient=None, field_id=""):
    """Wrap plain callables; ``support`` is interpreted in ``norm`` when
    given, otherwise in the norm the field is integrated against."""
    if support is None:
        raise UnsupportedDomainError("generic field needs a declared support annulus")
    return ScalarField(
        values=_single_point_aware(values),
        gradient=None if gradient is None else _single_point_aware(gradient),
        support=tuple(map(float, support)),
        field_id=field_id or "generic",
        structure="generic",
        norm=norm,
    )


def dilate_field(group, f, lam):
    """The field ``x -> f(D_lam x)``; structure is preserved."""
    lam = float(lam)
    if lam <= 0:
        raise InvalidParameterError("dilation parameter must be positive")
    new_sup = None if f.support is None else (f.support[0] / lam, f.support[1] / lam)
    tag = f"{f.field_id}|dil{lam:g}"
    if f.structure == "radial":
        return radial_field(f.profile.scale_argument(lam), f.norm, support=new_sup, field_id=tag)
    if f.structure == "product":
        # R^k (f o D_lam) = lam^k (R^k f) o D_lam
        degs = f.poly.weighted_degrees(group.weights)
        coeffs = tuple(c * lam ** (d - f.order) for c, d in zip(f.poly.coeffs, degs))
        poly = PolyFactor(f.poly.exponents, coeffs)
        return product_field(
            f.profile.scale_argument(lam), poly, f.norm, support=new_sup, field_id=tag,
            order=f.order,
        )
    w = group.weight_array()

    def values(x):
        return f.values(lam**w * np.asarray(x, dtype=float))

    grad = None
    if f.gradient is not None:

        def grad(x):
            return lam**w * np.asarray(f.gradient(lam**w * np.asarray(x, dtype=float)))

    return ScalarField(
        values=values,
        gradient=grad,
        support=new_sup,
        field_id=tag,
        structure="generic",
        norm=f.norm,
    )
