"""Closed-form constants for the weighted radial inequalities.

Every constant is assembled from first-order factors so that iterated
constants are *bit-identical* to the product of their single-step
counterparts.  Each product constant passes its factors ``d_j`` through
one helper, :func:`_factors`: a vanishing factor raises
:class:`~hgineq.errors.DegenerateConstantError` carrying the 0-based index
of the offending factor and the constant's own reason.
"""

from __future__ import annotations

import math
import numbers
from functools import reduce
from operator import truediv

from .errors import DegenerateConstantError, InvalidParameterError


#: ``float`` first: an exact type match costs a tenth of the ABC check, once per report
_REAL = (float, numbers.Real)


def validate_p(p, upper=None):
    """Require a finite real ``p > 1`` (and optionally ``p < upper``), else raise.

    Any real number type passes, numpy scalars included.
    """
    if not (isinstance(p, _REAL) and math.isfinite(p) and p > 1.0):
        raise InvalidParameterError("p must be a finite number > 1")
    if upper is not None and not p < upper:
        raise InvalidParameterError(f"p must satisfy p < {upper}")


def validate_finite(**values):
    """Require each given value that is not ``None`` to be a finite real number, else raise."""
    for name, v in values.items():
        if v is not None and not (isinstance(v, _REAL) and math.isfinite(v)):
            raise InvalidParameterError(f"{name} must be a finite number")


def ckn_constant(q_dim, gamma, p):
    """``|Q - gamma| / p`` — the sharp constant of the main inequality.

    Zero (``gamma == Q``) is allowed: the inequality degenerates to the
    trivial statement ``0 <= rhs``.
    """
    validate_p(p)
    return abs(q_dim - gamma) / p


def _factors(ds, reason, **values):
    """The ``|d_j|`` of a constant's first-order factors ``d_j``, in order.

    A vanishing ``d_j`` raises :class:`DegenerateConstantError` with
    ``factor_index=j`` and ``reason.format(j=j, **values)``.
    """
    out = []
    for j, d in enumerate(ds):
        if d == 0.0:
            raise DegenerateConstantError(reason.format(j=j, **values), factor_index=j)
        out.append(abs(d))
    return out


def hardy_step_constant(q_dim, p, alpha):
    """``p / |Q - p (alpha + 1)|`` — one weighted first-order step."""
    validate_p(p)
    return p / _factors([q_dim - p * (alpha + 1.0)],
                        "Q - p(alpha+1) vanishes at alpha={alpha:g}", alpha=alpha)[0]


def iterated_hardy_constant(q_dim, p, theta, k):
    """Order-``k`` constant: the literal product of ``k`` first-order steps
    at shifted weights ``theta, theta - 1, ..., theta - k + 1``."""
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    validate_p(p)
    return math.prod([p / d for d in _factors(
        [q_dim - p * ((theta - j) + 1.0) for j in range(k)],
        "factor j={j} vanishes: Q = p(theta+1-j) at theta={theta:g}", theta=theta)],
        start=1.0)


def ladder_constant_alpha(q_dim, p, alpha, m):
    """``p^m / prod_{j<m} |Q - p(alpha - j)|`` (first factor of the
    two-sided iterated bound); ``m = 0`` gives 1."""
    validate_p(p)
    if m < 0:
        raise InvalidParameterError("m must be >= 0")
    return math.prod([p / d for d in _factors(
        [q_dim - p * (alpha - j) for j in range(m)],
        "factor j={j} vanishes: Q = p(alpha - j)")], start=1.0)


def ladder_constant_beta(q_dim, p, beta, k):
    """``[p^k / prod_{j<k} |Q - p(beta/(p-1) - j)|]^(p-1)`` (second factor
    of the two-sided iterated bound); ``k = 0`` gives 1."""
    validate_p(p)
    if k < 0:
        raise InvalidParameterError("k must be >= 0")
    return math.prod([p / d for d in _factors(
        [q_dim - p * (beta / (p - 1.0) - j) for j in range(k)],
        "factor j={j} vanishes: Q = p(beta/(p-1) - j)")], start=1.0) ** (p - 1.0)


def uncertainty_constant(q_dim, p):
    """``p / (Q - p)`` for the L^2 uncertainty bound; needs ``1 < p < Q``."""
    validate_p(p, upper=q_dim)
    return p / (q_dim - p)


def l2_iterated_constant(q_dim, alpha, k):
    """``prod_{j<k} |(Q-2)/2 - (alpha + j)|^{-1}`` from the exact L^2
    remainder identity."""
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    return reduce(truediv, _factors(
        [0.5 * (q_dim - 2.0) - (alpha + j) for j in range(k)],
        "factor j={j} vanishes: (Q-2)/2 = alpha + j"), 1.0)


def combined_first_constant(q_dim, beta, k):
    """``prod_{j<k} |(Q-2)/2 - (beta - k + j)|^{-1}`` — pairs one radial
    derivative against order ``k``."""
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    return reduce(truediv, _factors(
        [0.5 * (q_dim - 2.0) - (beta - k + j) for j in range(k)],
        "factor j={j} vanishes: (Q-2)/2 = beta - k + j"), 1.0)


def combined_high_constant(q_dim, alpha, k):
    """``prod_{j<k} |(Q-2)/2 - (alpha - k + j)|^{-1}`` — pairs order
    ``k + 1`` against the undifferentiated field."""
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    return reduce(truediv, _factors(
        [0.5 * (q_dim - 2.0) - (alpha - k + j) for j in range(k)],
        "factor j={j} vanishes: (Q-2)/2 = alpha - k + j"), 1.0)


def constant_table(q_dim, p, alpha=None, beta=None, theta=None, k=None, m=None):
    """All constants computable from the given parameters.

    Returns a dict mapping constant name to ``{"value": v}`` or, when the
    defining product degenerates, ``{"degenerate": True, "factor_index": j,
    "reason": ...}``.  A non-finite ``alpha``, ``beta`` or ``theta`` is refused.
    """
    validate_finite(alpha=alpha, beta=beta, theta=theta)
    jobs = {}
    if alpha is not None and beta is not None:
        jobs["ckn"] = lambda: ckn_constant(q_dim, alpha + beta + 1.0, p)
    if alpha is not None:
        jobs["hardy_step"] = lambda: hardy_step_constant(q_dim, p, alpha)
    if p is not None and p < q_dim:
        jobs["uncertainty"] = lambda: uncertainty_constant(q_dim, p)
    if theta is not None and k is not None and k >= 1:
        jobs["iterated_hardy"] = lambda: iterated_hardy_constant(q_dim, p, theta, k)
    if alpha is not None and m is not None:
        jobs["ladder_alpha"] = lambda: ladder_constant_alpha(q_dim, p, alpha, m)
    if beta is not None and k is not None:
        jobs["ladder_beta"] = lambda: ladder_constant_beta(q_dim, p, beta, k)
    if alpha is not None and k is not None and k >= 1:
        jobs["l2_iterated"] = lambda: l2_iterated_constant(q_dim, alpha, k)
        jobs["combined_high"] = lambda: combined_high_constant(q_dim, alpha, k)
    if beta is not None and k is not None and k >= 1:
        jobs["combined_first"] = lambda: combined_first_constant(q_dim, beta, k)
    table = {}
    for name, job in jobs.items():
        try:
            table[name] = {"value": job()}
        except DegenerateConstantError as exc:
            table[name] = {
                "degenerate": True,
                "factor_index": exc.factor_index,
                "reason": str(exc),
            }
    return table
