"""Homogeneous quasi-norms on dilation groups.

Every norm ``N`` here satisfies ``N(D_lam x) = lam * N(x)`` exactly (up to
floating point) and vanishes only at the origin.  Smooth norms expose an
analytic Euclidean gradient away from the origin; ``max_scaled`` does not.

Catalog
-------
- ``euclidean``       isotropic groups only; the usual 2-norm.
- ``aniso_power``     ``(sum_i |x_i|**(2M/w_i))**(1/(2M))`` with
                      ``M = max(w)``; smooth away from 0 whenever every
                      exponent ``2M/w_i`` exceeds 1 (always true here since
                      ``2M/w_i >= 2``).
- ``max_scaled``      ``max_i |x_i|**(1/w_i)``; homogeneous but non-smooth.
- ``koranyi``         weights (1, 1, 2) only, as on ``heis1``:
                      ``((x1^2+x2^2)^2 + 16 x3^2)**(1/4)``.

Every catalog norm sees each coordinate only through ``|x_i|`` or
``x_i**2``, so it is even in each coordinate separately:
``N(..., -x_i, ...) == N(..., x_i, ...)`` bit for bit.  The sphere
measure's box rule relies on this to evaluate one orthant only; a new
norm kind that is not even must not be passed there.

Norms are evaluated one column at a time: ``n - 1`` whole-column sums or
maxima, left to right, give the same bits as ``np.sum`` / ``np.max`` along
the trailing axis of length ``n <= 3`` at a fraction of their cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IncompatibleNormError, InvalidParameterError, MissingDerivativeError
from .groups import GroupSpec, dilate

NORM_KINDS = ("euclidean", "aniso_power", "max_scaled", "koranyi")

_NORM_ALIASES = {"euclid": "euclidean", "aniso": "aniso_power", "max": "max_scaled"}


@dataclass(frozen=True)
class QuasiNormSpec:
    """A homogeneous quasi-norm bound to a specific group.

    Instances are callable: ``norm(x)`` returns the norm of points with
    shape ``(..., n)``.  A norm is its value ``(kind, group)``: caches and
    the check that a field is measured in its own norm compare specs by
    ``==``, never by a label.
    """

    kind: str
    group: GroupSpec = field(repr=False)

    def __post_init__(self):
        if self.kind not in NORM_KINDS:
            raise IncompatibleNormError(f"unknown norm kind {self.kind!r}")
        object.__setattr__(self, "_hash", hash((self.kind, self.group)))

    def __hash__(self):  # computed once: memo keys hash a norm on every report
        return self._hash

    def __reduce__(self):  # rebuilt, so a copy hashes in its own process
        return QuasiNormSpec, (self.kind, self.group)

    @property
    def smooth(self):
        """Whether an analytic gradient is available away from the origin."""
        return self.kind != "max_scaled"

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        w = self.group.weight_array()
        if self.kind == "euclidean":
            return np.sqrt(_fold_columns(np.add, x * x))
        if self.kind == "koranyi":
            u = x[..., 0] ** 2 + x[..., 1] ** 2
            return (u * u + 16.0 * x[..., 2] ** 2) ** 0.25
        if self.kind == "aniso_power":
            # one ``**`` over the whole array: a per-column ``**`` with a
            # scalar exponent takes numpy's fast paths and changes bits
            m2 = 2.0 * max(w)
            return _fold_columns(np.add, np.abs(x) ** (m2 / w)) ** (1.0 / m2)
        # max_scaled; pow(t, 1) == t exactly
        a = np.abs(x)
        if np.any(w != 1.0):
            a = a ** (1.0 / w)
        return _fold_columns(np.maximum, a)

    def gradient(self, x):
        """Euclidean gradient of the norm, shape ``(..., n)``.

        Raises
        ------
        MissingDerivativeError
            For the non-smooth ``max_scaled`` norm.
        """
        if not self.smooth:
            raise MissingDerivativeError("max_scaled norm has no gradient")
        x = np.asarray(x, dtype=float)
        if self.kind == "euclidean":
            r = self(x)
            return x / r[..., None]
        if self.kind == "koranyi":
            u = x[..., 0] ** 2 + x[..., 1] ** 2
            v = u * u + 16.0 * x[..., 2] ** 2
            f = v ** (-0.75)
            g = np.empty_like(x)
            g[..., 0] = u * x[..., 0] * f
            g[..., 1] = u * x[..., 1] * f
            g[..., 2] = 8.0 * x[..., 2] * f
            return g
        # aniso_power
        w = self.group.weight_array()
        m2 = 2.0 * max(w)
        q = m2 / w
        s = np.sum(np.abs(x) ** q, axis=-1)
        front = (1.0 / m2) * s ** (1.0 / m2 - 1.0)
        return front[..., None] * q * np.abs(x) ** (q - 1.0) * np.sign(x)

    def bounding_halfwidths(self, r):
        """Per-coordinate halfwidths of a box containing ``{N(x) <= r}``.

        The returned box is tight for ``max_scaled`` / ``aniso_power`` and
        for the Koranyi ball (``|x3| <= r^2/4``); for ``euclidean`` it is
        the circumscribed cube.
        """
        if r <= 0:
            raise InvalidParameterError("radius must be positive")
        w = self.group.weight_array()
        if self.kind == "koranyi":
            return np.array([r, r, r * r / 4.0])
        return np.asarray(r) ** w


def _fold_columns(op, y):
    """``op`` applied across the columns of ``y`` (shape ``(..., n)``),
    left to right; a scalar for ``n``-vectors, as numpy's reductions give."""
    out = y[..., 0]
    for i in range(1, y.shape[-1]):
        out = op(out, y[..., i])
    return out[()]


def make_norm(group, kind):
    """Build a quasi-norm on ``group``, validating compatibility."""
    kind = _NORM_ALIASES.get(kind, kind)
    if kind == "euclidean" and any(w != 1.0 for w in group.weights):
        raise IncompatibleNormError("euclidean norm requires isotropic weights")
    if kind == "koranyi" and group.weights != (1.0, 1.0, 2.0):
        raise IncompatibleNormError("koranyi norm requires weights (1, 1, 2)")
    return QuasiNormSpec(kind=kind, group=group)


def default_norm(group):
    """Canonical norm per catalog id: ``euclidean`` on ``r:<n>``, ``koranyi``
    on ``heis1`` and ``aniso_power`` on every other id, ``aniso:1,1,2``
    included."""
    if group.name.startswith("r:"):
        return make_norm(group, "euclidean")
    if group.name == "heis1":
        return make_norm(group, "koranyi")
    return make_norm(group, "aniso_power")


def homogeneity_deviation(norm, samples=256, seed=0, lam_range=(1e-3, 1e3)):
    """Max relative violation of ``N(D_lam x) = lam N(x)`` over random draws.

    Used as a self-test; for all catalog norms this is at floating-point
    level (``<= ~1e-12``).
    """
    if samples < 1:
        raise InvalidParameterError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    n = norm.group.dim
    x = rng.uniform(-2.0, 2.0, size=(samples, n))
    x[np.all(np.abs(x) < 1e-3, axis=-1)] += 1.0
    lam = np.exp(rng.uniform(np.log(lam_range[0]), np.log(lam_range[1]), size=samples))
    lhs = norm(dilate(norm.group, lam, x))
    rhs = lam * norm(x)
    return float(np.max(np.abs(lhs - rhs) / rhs))
