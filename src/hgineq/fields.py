"""Scalar fields on a homogeneous group.

A :class:`ScalarField` bundles vectorized ``values`` / ``gradient``
callables with structural metadata the calculus layer exploits:

- ``radial``   fields ``f = g(N(x))`` built from a :class:`RadialProfile`
               and a quasi-norm; radial derivatives and weighted norms of
               these reduce to exact one-dimensional operations.
- ``product``  fields ``f = g(N(x)) * q(x)`` with a polynomial factor
               ``q``: along the orbit through ``w`` on ``{N = 1}``,
               ``R^k f(D_r w) = sum_m c_m w^(e_m) d^k/dr^k [r^(d_m) g(r)]``
               with the weighted degrees ``d_m`` of ``q`` (see
               :func:`orbit_profiles`); a radial field is the case ``q = 1``.
- ``generic``  plain callables with a declared support annulus.

One constructor (:func:`_profile_field`) builds both profile structures,
and ``R^k`` of either keeps ``g`` and raises ``order`` by ``k``.  All
fields vanish identically outside their declared support ``(r0, r1)``
(measured in the field's own norm), which is what makes weighted-norm
integrands safe near the origin.  Profile fields are evaluated on one
masked path (:func:`_on_support`); a block of points that lies wholly in
the support, as the polar grid's orbit blocks usually do, is evaluated
whole, with the same bits as the masked path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
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

        Column ``m`` is the product of the powers ``x_i^(e_mi)``, ``e_mi > 0``,
        in coordinate order, from a table of powers built by repeated
        multiplication (``**`` on float arrays costs about 15 times as much)."""
        x = np.asarray(x, dtype=float)
        powers = []  # powers[i][d - 1] = x_i^d
        for i, top in enumerate(np.max(self.exponents, axis=0)):
            powers.append([x[..., i]])
            for _ in range(1, top):
                powers[i].append(powers[i][-1] * x[..., i])
        out = np.empty(x.shape[:-1] + (len(self.exponents),))
        for m, e in enumerate(self.exponents):
            factors = [powers[i][d - 1] for i, d in enumerate(e) if d]
            out[..., m] = reduce(np.multiply, factors) if factors else 1.0
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
    field's own ``norm``.  A radial or product field with ``order = k``
    is ``R^k [g(N) q]`` (``q = 1`` if ``poly`` is None); a field made by
    orbit finite differences records ``orbit_fd = (base, k, norm)``: it is
    ``R^k base`` along the orbits of ``norm``.
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
    orbit_fd: tuple = field(default=None, repr=False)

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


def _on_support(fn, r, x, support, dtype, shape):
    """``fn(r, x)`` where ``r0 <= r <= r1`` and 0 elsewhere, as an array of
    ``shape`` and ``dtype``; ``fn`` takes 1-D radii and their ``(k, n)``
    points.  A block wholly in the support is passed whole, in the layout
    the masked path would gather: no zero fill, no copies, no scatter."""
    m = (r >= support[0]) & (r <= support[1])
    if m.size and m.all():
        v = fn(r.reshape(-1), np.ascontiguousarray(x.reshape(-1, x.shape[-1])))
        return np.asarray(v, dtype=dtype).reshape(shape)
    out = np.zeros(shape, dtype=dtype)
    if np.any(m):
        out[m] = fn(r[m], x[m])
    return out


def _profile_dtype(prof, support, order=0):
    r_probe = 1.0 if support is None else float(np.sqrt(support[0] * support[1]) or support[1] / 2)
    return np.asarray(prof.derivatives(np.array([r_probe]), order)).dtype


def radial_field(profile, norm, support=None, field_id=""):
    """Field ``f(x) = g(N(x))`` from a profile ``g`` and quasi-norm ``N``.

    ``support`` defaults to the profile's own support and must be known
    one way or the other.
    """
    return _profile_field(profile, None, norm, support, field_id, 0)


def _falling(d, i):
    out = 1.0
    for j in range(i):
        out *= d - j
    return out


def orbit_profiles(profile, degs, k, r, stack=None):
    """``H_m(r) = d^k/dr^k [r^(d_m) g(r)]`` for a profile ``g`` and each
    weighted degree ``d_m``; shape ``r.shape + (M,)``.

    Along the orbit through ``w`` on the unit sphere, the product field
    ``R^k [g(N) q]`` takes the values ``sum_m c_m w^(e_m) H_m(r)``.
    ``stack`` is ``profile.derivatives(r, k)`` when the caller has it.
    """
    if stack is None:
        stack = profile.derivatives(r, k)
    return np.stack([
        sum(comb(k, i) * _falling(d, i) * r ** (d - i) * stack[k - i] for i in range(k + 1))
        for d in degs
    ], axis=-1)


def product_field(profile, poly, norm, support=None, field_id="", order=0):
    """Field ``f(x) = g(N(x)) * q(x)`` with polynomial ``q``, or with
    ``order = k`` its radial derivative ``R^k f`` (which has no gradient)."""
    return _profile_field(profile, poly, norm, support, field_id, order)


def _profile_field(profile, poly, norm, support, field_id, order):
    """``R^order [g(N) q]`` in ``norm``, with ``q = 1`` (``g^(order)(N)``,
    whose gradient is ``g^(order + 1)(N) grad N``) when ``poly`` is None;
    a product field has a gradient at order 0 only."""
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool) or order < 0:
        raise InvalidParameterError("order must be a nonnegative int")
    structure = "radial" if poly is None else "product"
    if poly is not None and poly.dim != norm.group.dim:
        raise InvalidParameterError("polynomial dimension does not match the group")
    sup = support if support is not None else profile.support
    if sup is None:
        raise UnsupportedDomainError(f"{structure} field needs a support annulus")
    r0, r1 = float(sup[0]), float(sup[1])
    if not 0.0 < r0 < r1:
        raise InvalidParameterError("support must satisfy 0 < r0 < r1")
    order = int(order)
    degs = None if poly is None else poly.weighted_degrees(norm.group.weights)

    # a product field is complex, as its coefficients are; a quasi-radial
    # one is probed on first use, as its reports evaluate stacks, not values
    dtypes = [] if poly is None else [np.dtype(complex)]

    def dtype():
        if not dtypes:
            dtypes.append(_profile_dtype(profile, (r0, r1), order))
        return dtypes[0]

    def on_support(r, x):
        if poly is None:
            return profile.derivatives(r, order)[order]
        if order == 0:
            return profile(r) * poly(x)
        # x^e = r^d w^e on the orbit through w = D_(1/r) x
        terms = poly.monomials(x) * r[:, None] ** -degs
        return (terms * orbit_profiles(profile, degs, order, r)) @ np.asarray(poly.coeffs)

    def values(x):
        r = norm(x)
        return _on_support(on_support, r, x, (r0, r1), dtype(), r.shape)

    def gradient(r, x):
        stack = profile.derivatives(r, order + 1)
        if poly is None:
            return stack[order + 1][:, None] * norm.gradient(x)
        return ((stack[1] * poly(x))[:, None] * norm.gradient(x)
                + stack[0][:, None] * poly.gradient(x))

    grad = None
    if norm.smooth and (poly is None or order == 0):

        def grad(x):
            return _on_support(gradient, norm(x), x, (r0, r1), dtype(), x.shape)

    return ScalarField(
        values=_single_point_aware(values),
        gradient=None if grad is None else _single_point_aware(grad),
        support=(r0, r1),
        field_id=field_id or f"{structure}[{profile.label}]",
        structure=structure,
        norm=norm,
        profile=profile,
        poly=poly,
        order=order,
    )


def generic_field(values, support, norm=None, gradient=None, field_id=""):
    """Wrap plain callables; ``support`` is interpreted in ``norm`` when
    given, otherwise in the norm the field is integrated against.
    ``values`` must be pointwise: weighted norms call it on blocks of the
    polar grid, whose values may differ from one call's in the last bit."""
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
    if f.structure in ("radial", "product"):
        prof, poly, order = f.profile, f.poly, f.order
        if poly is None:  # R^k f = g^(k)(N), whose dilation is g^(k)(lam N)
            prof, order = prof.derivative(order), 0
        else:  # R^k (f o D_lam) = lam^k (R^k f) o D_lam
            terms = zip(poly.coeffs, poly.weighted_degrees(group.weights))
            poly = PolyFactor(poly.exponents, tuple(c * lam ** (d - order) for c, d in terms))
        return _profile_field(prof.scale_argument(lam), poly, f.norm, new_sup, tag, order)
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
