"""Homogeneous dilation groups in exponential coordinates.

A group here is :math:`\\mathbb{R}^n` carrying a family of anisotropic
dilations ``D_lam(x)_i = lam**w_i * x_i`` with positive weights ``w_i``.
The weight vector is the whole description: Haar measure is Lebesgue
measure in these coordinates, the homogeneous dimension is
``Q = sum(w)``, and on a graded group the dilation generator
``sum_j w_j x_j X_j`` of the left-invariant frame equals the Euler field
``sum_i w_i x_i d_i`` (Folland and Stein, *Hardy Spaces on Homogeneous
Groups*, 1982, 1.A), so the radial derivative needs no frame.

Catalog ids:

- ``r:<n>``: R^n with all weights 1.
- ``aniso:<w1,...,wn>``: R^n with the given weights.
- ``heis1``: the first Heisenberg group on R^3, weights (1, 1, 2).

:func:`parse_group` names a group by its exact weights: parsing
``g.name`` again gives ``g.weights`` bit for bit.  A group is its value
``(name, weights)``, so one built by hand under a catalog name but with
other weights is another group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, UnsupportedGroupError


@dataclass(frozen=True)
class GroupSpec:
    """Immutable description of a homogeneous group.

    Attributes
    ----------
    name : str
        Catalog identifier, e.g. ``"r:3"``, ``"aniso:1,2"``, ``"heis1"``.
    weights : tuple of float
        Dilation weights ``w_i``, all positive and finite; ``dim`` is their
        number.  Any sequence of numbers is stored as a tuple of floats.
    """

    name: str
    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if not self.weights:
            raise UnsupportedGroupError("a group needs at least one dilation weight")
        if not all(0 < w < math.inf for w in self.weights):
            raise UnsupportedGroupError("dilation weights must be positive and finite")
        object.__setattr__(self, "_hash", hash((self.name, self.weights)))

    def __hash__(self):  # computed once: memo keys hash a group on every report
        return self._hash

    def __reduce__(self):  # rebuilt, so a copy hashes in its own process
        return GroupSpec, (self.name, self.weights)

    @property
    def dim(self):
        """Topological dimension ``n``."""
        return len(self.weights)

    @property
    def homogeneous_dimension(self):
        """Q = sum of the dilation weights."""
        return float(sum(self.weights))

    def weight_array(self):
        return np.asarray(self.weights, dtype=float)


def parse_group(text):
    """Parse a catalog identifier (``r:<n>``, ``aniso:<w1,w2,...>``, ``heis1``).

    An anisotropic weight is spelled ``{w:g}`` when that reads back as
    ``w`` and ``repr(w)`` otherwise: ``aniso:1.0,2.50`` is named
    ``aniso:1,2.5`` and ``aniso:1.0000001,2`` keeps its digits."""
    text = text.strip()
    if text == "heis1":
        return GroupSpec("heis1", (1.0, 1.0, 2.0))
    if text.startswith("r:"):
        try:
            n = int(text[2:])
        except ValueError:
            raise UnsupportedGroupError(f"bad isotropic id {text!r}") from None
        return GroupSpec(f"r:{n}", (1.0,) * n)
    if text.startswith("aniso:"):
        try:
            w = tuple(float(v) for v in text[6:].split(",") if v.strip())
        except ValueError:
            raise UnsupportedGroupError(f"bad anisotropic id {text!r}") from None
        return GroupSpec("aniso:" + ",".join(_spell(v) for v in w), w)
    raise UnsupportedGroupError(f"unknown group id {text!r}")


def _spell(w):
    short = f"{w:g}"
    return short if float(short) == w else repr(w)


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
