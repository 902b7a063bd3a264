"""Homogeneous dilation groups in exponential coordinates.

A group here is :math:`\\mathbb{R}^n` carrying a family of anisotropic
dilations ``D_lam(x)_i = lam**w_i * x_i`` with positive weights ``w_i``,
together with a frame of left-invariant vector fields.  Haar measure is
Lebesgue measure in these coordinates, and the homogeneous dimension is
``Q = sum(w)``.

Three kinds are provided:

- ``abelian_isotropic``: flat R^n, all weights 1, frame = coordinate frame.
- ``abelian_anisotropic``: flat R^n with arbitrary positive weights.
- ``heisenberg``: the first Heisenberg group on R^3, weights (1, 1, 2),
  frame X1 = d1 - (x2/2) d3, X2 = d2 + (x1/2) d3, X3 = d3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, UnsupportedGroupError

GROUP_KINDS = ("abelian_isotropic", "abelian_anisotropic", "heisenberg")

_FD_REL_STEP = 1e-5  # central-difference step factor for frame fields


@dataclass(frozen=True)
class GroupSpec:
    """Immutable description of a homogeneous group.

    Attributes
    ----------
    name : str
        Catalog identifier, e.g. ``"r:3"``, ``"aniso:1,2"``, ``"heis1"``.
    kind : str
        One of :data:`GROUP_KINDS`.
    dim : int
        Topological dimension ``n``.
    weights : tuple of float
        Dilation weights ``w_i``, all positive.
    """

    name: str
    kind: str
    dim: int
    weights: tuple

    def __post_init__(self):
        if self.kind not in GROUP_KINDS:
            raise UnsupportedGroupError(f"unknown group kind {self.kind!r}")
        if self.dim < 1 or len(self.weights) != self.dim:
            raise UnsupportedGroupError("weights length must equal dim")
        if any(w <= 0 for w in self.weights):
            raise UnsupportedGroupError("dilation weights must be positive")
        if self.kind == "heisenberg" and (self.dim != 3 or tuple(self.weights) != (1.0, 1.0, 2.0)):
            raise UnsupportedGroupError("heisenberg requires dim 3 and weights (1, 1, 2)")

    @property
    def homogeneous_dimension(self):
        """Q = sum of the dilation weights."""
        return float(sum(self.weights))

    @property
    def is_abelian(self):
        return self.kind != "heisenberg"

    def weight_array(self):
        return np.asarray(self.weights, dtype=float)

    def frame_coefficients(self, x):
        """Coefficient matrix ``C`` of the frame at points ``x``.

        ``X_j f = sum_i C[..., j, i] * d_i f``.  For abelian kinds this is
        the identity; for the Heisenberg group the rows are the standard
        left-invariant frame.

        Parameters
        ----------
        x : ndarray, shape (..., n)

        Returns
        -------
        ndarray, shape (..., n, n)
        """
        x = np.asarray(x, dtype=float)
        n = self.dim
        if x.shape[-1] != n:
            raise InvalidParameterError(f"points must have last axis {n}")
        if self.is_abelian:
            return np.broadcast_to(np.eye(n), x.shape[:-1] + (n, n))
        c = np.zeros(x.shape[:-1] + (3, 3))
        c[..., 0, 0] = 1.0
        c[..., 0, 2] = -0.5 * x[..., 1]
        c[..., 1, 1] = 1.0
        c[..., 1, 2] = 0.5 * x[..., 0]
        c[..., 2, 2] = 1.0
        return c


def make_group(kind, dim=None, weights=None):
    """Construct a :class:`GroupSpec` of the given kind.

    ``dim`` is required for ``abelian_isotropic``; ``weights`` for
    ``abelian_anisotropic``; ``heisenberg`` takes neither.
    """
    if kind == "abelian_isotropic":
        if dim is None or dim < 1:
            raise UnsupportedGroupError("abelian_isotropic needs dim >= 1")
        return GroupSpec(f"r:{dim}", kind, int(dim), (1.0,) * int(dim))
    if kind == "abelian_anisotropic":
        if not weights:
            raise UnsupportedGroupError("abelian_anisotropic needs weights")
        w = tuple(float(v) for v in weights)
        label = ",".join(f"{v:g}" for v in w)
        return GroupSpec(f"aniso:{label}", kind, len(w), w)
    if kind == "heisenberg":
        return GroupSpec("heis1", kind, 3, (1.0, 1.0, 2.0))
    raise UnsupportedGroupError(f"unknown group kind {kind!r}")


def parse_group(text):
    """Parse a catalog identifier (``r:<n>``, ``aniso:<w1,w2,...>``, ``heis1``)."""
    text = text.strip()
    if text == "heis1":
        return make_group("heisenberg")
    if text.startswith("r:"):
        try:
            n = int(text[2:])
        except ValueError:
            raise UnsupportedGroupError(f"bad isotropic id {text!r}") from None
        return make_group("abelian_isotropic", dim=n)
    if text.startswith("aniso:"):
        try:
            w = [float(v) for v in text[6:].split(",") if v.strip()]
        except ValueError:
            raise UnsupportedGroupError(f"bad anisotropic id {text!r}") from None
        return make_group("abelian_anisotropic", weights=w)
    raise UnsupportedGroupError(f"unknown group id {text!r}")


def dilate(group, lam, x):
    """Apply the dilation ``D_lam`` to points ``x`` of shape ``(..., n)``.

    ``lam`` may be a positive scalar or an array broadcastable against the
    leading axes of ``x``.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0):
        raise InvalidParameterError("dilation parameter must be positive")
    x = np.asarray(x, dtype=float)
    w = np.asarray(group.weights)
    return lam[..., None] ** w * x if lam.ndim else lam**w * x


def apply_vector_field(group, j, field, x, mode="analytic"):
    """Evaluate the frame field ``X_j`` on ``field`` at points ``x``.

    Parameters
    ----------
    group : GroupSpec
    j : int
        Frame index, ``0 <= j < n``.
    field : object
        Anything with a ``values(x)`` callable; ``mode="analytic"``
        additionally requires a ``gradient(x)`` callable.
    x : ndarray, shape (..., n)
    mode : {"analytic", "fd"}
        ``analytic`` contracts the frame coefficients with the exact
        gradient; ``fd`` uses central differences with per-coordinate step
        ``1e-5 * max(1, |x_i|)``.
    """
    if not 0 <= j < group.dim:
        raise InvalidParameterError(f"frame index {j} out of range")
    x = np.asarray(x, dtype=float)
    grad = _field_gradient(field, x, mode)
    coeff = group.frame_coefficients(x)[..., j, :]
    return np.einsum("...i,...i->...", coeff, grad)


def _field_gradient(field, x, mode):
    if mode == "analytic":
        grad_fn = getattr(field, "gradient", None)
        if grad_fn is None:
            from .errors import MissingDerivativeError

            raise MissingDerivativeError("field has no analytic gradient")
        return np.asarray(grad_fn(x))
    if mode != "fd":
        raise InvalidParameterError(f"unknown mode {mode!r}")
    n = x.shape[-1]
    h = _FD_REL_STEP * np.maximum(1.0, np.abs(x))
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        hi = h[..., i : i + 1]
        cols.append((field.values(x + hi * e) - field.values(x - hi * e)) / (2.0 * hi[..., 0]))
    return np.stack(cols, axis=-1)


def radial_frame_combination(group, x, grad):
    """Contract ``sum_j w_j x_j X_j`` against a precomputed gradient.

    Returns the *unnormalized* radial combination (no division by a
    quasi-norm).  The contraction is organized so that, on the Heisenberg
    group, the ``d_3`` coefficient ``x1*(-x2/2) + x2*(x1/2)`` cancels
    exactly in floating point.
    """
    x = np.asarray(x, dtype=float)
    w = group.weight_array()
    coeff = group.frame_coefficients(x)
    # weight vector in partial-derivative basis: v_i = sum_j w_j x_j C[j, i]
    v = np.einsum("j,...j,...ji->...i", w, x, coeff)
    return np.einsum("...i,...i->...", v, np.asarray(grad))

