"""Inequality and identity verification reports.

Every check is one row of :data:`CHECKS`: a constant from
:mod:`~hgineq.constants` and two sides, each a sum of terms
``coefficient * prod norm**exponent`` over weighted norms of the field
and its radial derivatives.  :func:`evaluate` fills in an
:class:`InequalityReport` from a row, and one first-order propagator
turns the norms' quadrature error estimates into the margin: twice the
propagated error plus a floating-point cushion, so ``satisfied`` means
"holds within the numerics", never "holds by fiat".  The ``*_report``
functions are thin wrappers that name a row.  A row's sides at a point are
worked out once per ``(row, Q, params)`` for the last 256 points
(:func:`_plan`) and shared by the reports of every field, each of which
gets its own ``params`` and ``detail``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .calculus import nth_radial_derivative, weighted_combo_l2, weighted_lp_norm
from .constants import (
    ckn_constant,
    combined_first_constant,
    combined_high_constant,
    hardy_step_constant,
    iterated_hardy_constant,
    l2_iterated_constant,
    ladder_constant_alpha,
    ladder_constant_beta,
    uncertainty_constant,
    validate_finite,
    validate_p,
)
from .errors import InvalidParameterError
from .memo import bounded
from .quadrature import DEFAULT_CONFIG

_EPS_CUSHION = 32.0 * np.finfo(float).eps


@dataclass
class InequalityReport:
    """Outcome of one verified inequality or identity.

    ``kind`` is ``"inequality"`` (checks ``lhs <= rhs + margin``) or
    ``"identity"`` (checks ``|lhs - rhs| <= margin``).  ``trivial`` marks
    parameter points where the constant vanishes and the bound holds for
    free.  ``detail`` carries the raw norm values and error estimates.
    """

    check_id: str
    group: str
    norm: str
    field_id: str
    kind: str
    params: dict
    constant: float
    lhs: float
    rhs: float
    margin: float
    satisfied: bool
    trivial: bool = False
    config_digest: str = ""
    detail: dict = field(default_factory=dict)

    def __post_init__(self):
        # numpy scalars sneak in from the quadrature layer; pin the
        # comparison fields to builtins so serialization stays plain
        self.constant = float(self.constant)
        self.lhs = float(self.lhs)
        self.rhs = float(self.rhs)
        self.margin = float(self.margin)
        self.satisfied = bool(self.satisfied)
        self.trivial = bool(self.trivial)

    @property
    def ratio(self):
        if self.rhs > 0:
            return self.lhs / self.rhs
        return 0.0 if self.lhs == 0 else float("inf")

    @property
    def residual(self):
        return abs(self.lhs - self.rhs)


# -- the check table ----------------------------------------------------------


class Norm(NamedTuple):
    """``||R^k f N^-weight||_p``, evaluated by :func:`weighted_lp_norm`."""

    k: int
    weight: float
    p: float


class Combo(NamedTuple):
    """``||sum_i c_i R^(k_i) f N^-(a_i)||_2`` over ``terms = ((c_i, k_i, a_i), ...)``,
    evaluated by :func:`weighted_combo_l2`.  Under a detail key, combos are
    listed in order (the identity's remainders)."""

    terms: tuple


@dataclass(frozen=True)
class Sides:
    """A check at one parameter point.

    ``lhs`` and ``rhs`` are lists of terms ``(coefficient, factors)``, each
    factor ``(Norm or Combo, exponent, detail key or None)``; a side's
    value is ``sum coefficient * prod value**exponent``.  Reports share it
    and copy ``detail``, whose values are therefore immutable.
    """

    constant: float
    lhs: list
    rhs: list
    trivial: bool = False
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Check:
    """One row of the check table.

    ``axes`` are the run-config keys a CLI sweep takes the grid from
    (outermost first); ``params`` maps a grid point to the params recorded
    in the report (default: the axes' values); ``sides(Q, **params)``
    gives the constant and both sides; ``orders`` are the derivative-order
    params and their least admissible values.
    """

    id: str
    axes: tuple
    sides: Callable
    kind: str = "inequality"
    params: Callable = None
    orders: dict = field(default_factory=dict)


def _ckn(q, p, alpha, beta):
    gamma = alpha + beta + 1.0
    const = ckn_constant(q, gamma, p)
    return Sides(
        const,
        lhs=[(const, [(Norm(0, gamma / p, p), p, "norm_lhs")])],
        rhs=[(1.0, [(Norm(1, alpha, p), 1.0, "norm_deriv"),
                    (Norm(0, beta / (p - 1.0), p), p - 1.0, "norm_dual")])],
        trivial=gamma == q,
        detail={"gamma": gamma},
    )


def _hardy(q, p, alpha):
    const = hardy_step_constant(q, p, alpha)
    return Sides(
        const,
        lhs=[(1.0, [(Norm(0, alpha + 1.0, p), 1.0, None)])],
        rhs=[(const, [(Norm(1, alpha, p), 1.0, "norm_deriv")])],
    )


def _up1p(q, p):
    const = uncertainty_constant(q, p)
    return Sides(
        const,
        lhs=[(1.0, [(Norm(0, 0.0, 2.0), 2.0, "norm_l2")])],
        rhs=[(const, [(Norm(1, 0.0, p), 1.0, "norm_deriv"),
                      (Norm(0, -1.0, p / (p - 1.0)), 1.0, "norm_moment")])],
    )


def _higher(q, p, theta, k):
    const = iterated_hardy_constant(q, p, theta, k)
    return Sides(
        const,
        lhs=[(1.0, [(Norm(0, theta + 1.0, p), 1.0, None)])],
        rhs=[(const, [(Norm(k, theta + 1.0 - k, p), 1.0, "norm_deriv")])],
    )


def _pair(q, p, alpha, beta, k, m):
    gamma = alpha + beta + 1.0
    base = ckn_constant(q, gamma, p)
    const = ladder_constant_alpha(q, p, alpha, m) * ladder_constant_beta(q, p, beta, k)
    return Sides(
        const,
        lhs=[(base, [(Norm(0, gamma / p, p), p, "norm_lhs")])],
        rhs=[(const, [(Norm(m + 1, alpha - m, p), 1.0, "norm_high"),
                      (Norm(k, beta / (p - 1.0) - k, p), p - 1.0, "norm_low")])],
        trivial=gamma == q,
        detail={"gamma": gamma, "base_constant": base},
    )


def _l2_identity(q, p, alpha, k):
    # signed partial products prod_{j<l} ((Q-2)/2 - (alpha+j)), l = 0..k
    partial = [1.0]
    for j in range(k):
        partial.append(partial[-1] * (0.5 * (q - 2.0) - (alpha + j)))
    remainders = [
        (partial[ell] ** 2, [(Combo(((1.0, k - ell, ell + alpha),
                                     (0.5 * (q - 2.0 * (ell + 1.0 + alpha)), k - ell - 1,
                                      ell + 1.0 + alpha))), 2.0, "remainders")])
        for ell in range(k)
    ]
    return Sides(
        partial[k] ** 2,
        lhs=[(1.0, [(Norm(k, alpha, 2.0), 2.0, None)])],
        rhs=[(partial[k] ** 2, [(Norm(0, k + alpha, 2.0), 2.0, "base_norm")])] + remainders,
        detail={"partial_products": tuple(partial)},
    )


def _l2_sharp(q, p, alpha, k):
    if q < 3.0:
        raise InvalidParameterError("sharp L^2 iterated bound needs Q >= 3")
    const = l2_iterated_constant(q, alpha, k)
    return Sides(
        const,
        lhs=[(1.0, [(Norm(0, k + alpha, 2.0), 1.0, None)])],
        rhs=[(const, [(Norm(k, alpha, 2.0), 1.0, "norm_deriv")])],
    )


def _combined(high):
    """L^2 bounds mixing two derivative orders: ``Rf`` against ``R^k f``, or
    with ``high`` ``R^(k+1) f`` against ``f`` itself."""

    def sides(q, p, alpha, beta, k):
        gamma = alpha + beta + 1.0
        base = ckn_constant(q, gamma, 2.0)
        if high:
            const = combined_high_constant(q, alpha, k)
            norms = (Norm(k + 1, alpha - k, 2.0), Norm(0, beta, 2.0))
        else:
            const = combined_first_constant(q, beta, k)
            norms = (Norm(1, alpha, 2.0), Norm(k, beta - k, 2.0))
        return Sides(
            const,
            lhs=[(base, [(Norm(0, gamma / 2.0, 2.0), 2.0, "norm_lhs")])],
            rhs=[(const, [(norms[0], 1.0, "norm_high"), (norms[1], 1.0, "norm_low")])],
            trivial=gamma == q,
            detail={"gamma": gamma, "base_constant": base},
        )

    return sides


def _at_p2(*axes):
    return lambda point: {"p": 2.0, **{axis: point[axis] for axis in axes}}


CHECKS = {c.id: c for c in (
    Check("ckn", ("p", "alpha", "beta"), _ckn),
    Check("hardy", ("p", "alpha"), _hardy),
    Check("up1p", ("p",), _up1p),
    Check("hpw1", ("p", "alpha"), _ckn, params=lambda pt: {
        "p": pt["p"], "alpha": pt["alpha"], "beta": pt["alpha"] * (pt["p"] - 1.0) - 1.0}),
    Check("hpw2", ("p",), _ckn, params=lambda pt: {
        "p": pt["p"], "alpha": -pt["p"], "beta": pt["p"] - 1.0}),
    Check("higher", ("p", "theta", "k"), _higher, orders={"k": 1}),
    Check("pair", ("p", "alpha", "beta", "k", "m"), _pair, orders={"k": 0, "m": 0}),
    Check("l2-identity", ("alpha", "k"), _l2_identity, kind="identity",
          params=_at_p2("alpha", "k"), orders={"k": 1}),
    Check("l2-sharp", ("alpha", "k"), _l2_sharp, params=_at_p2("alpha", "k"),
          orders={"k": 1}),
    Check("combined-first", ("alpha", "beta", "k"), _combined(high=False),
          params=_at_p2("alpha", "beta", "k"), orders={"k": 1}),
    Check("combined-high", ("alpha", "beta", "k"), _combined(high=True),
          params=_at_p2("alpha", "beta", "k"), orders={"k": 1}),
)}

#: Names that stand for several rows, each swept on its own grid.
ALIASES = {"uncertainty": ("up1p", "hpw1", "hpw2")}

#: Names swept as one check whose innermost grid axis, ``variant``, picks the row.
VARIANTS = {"combined": {"first": "combined-first", "high": "combined-high"}}


# -- evaluation -----------------------------------------------------------------


def _cushion(lhs, rhs):
    return _EPS_CUSHION * (abs(lhs) + abs(rhs) + 1e-300)


def _side(terms):
    """Value and first-order error of ``sum coef * prod v**e`` over
    ``terms = [(coef, [(v, err, e), ...]), ...]``.  A factor whose value is
    0 contributes ``err**e`` in place of its derivative."""
    value = error = 0.0
    for coef, factors in terms:
        term = coef
        for v, _, e in factors:
            term *= v**e
        value += term
        for i, (v, dv, e) in enumerate(factors):
            d = coef * (e * v ** (e - 1.0) * dv if v > 0 else dv**e)
            for j, (w, _, ej) in enumerate(factors):
                if j != i:
                    d *= w**ej
            error += d
    return value, error


#: points kept: a corpus field's grid (41 points) on three groups, twice over
@bounded(256, typed=True)
def _plan(check_id, q, **params):
    """Row ``check_id``'s :class:`Sides` at ``Q = q`` and ``params``, the
    derivative orders its norms and combos take (in table order), and its
    highest-order norm; each param matched with its type."""
    sides = CHECKS[check_id].sides(q, **params)
    specs = [spec for _, facs in sides.lhs + sides.rhs for spec, _, _ in facs]
    orders = dict.fromkeys(k for spec in specs for k in (
        [spec.k] if isinstance(spec, Norm) else [k for _, k, _ in spec.terms]))
    top = max((spec for spec in specs if isinstance(spec, Norm)), key=lambda spec: spec.k)
    return sides, tuple(orders), top


def evaluate(check_id, group, norm, f, point, config=None, mode="auto"):
    """Report for table row ``check_id`` at the parameter ``point`` (a dict
    holding at least the row's axes; other keys are ignored)."""
    row = CHECKS[check_id]
    if "p" in point:
        validate_p(point["p"])
    validate_finite(**{a: point[a] for a in row.axes if a != "p" and a not in row.orders})
    for name, least in row.orders.items():
        if not isinstance(point[name], numbers.Integral) or isinstance(point[name], bool):
            raise InvalidParameterError(f"{name} must be an integer")
        if point[name] < least:
            raise InvalidParameterError(f"{name} must be >= {least}")
    if row.params is None:
        params = {axis: point[axis] for axis in row.axes}
    else:
        params = row.params(point)
    config = config or DEFAULT_CONFIG
    sides, orders, top = _plan(row.id, group.homogeneous_dimension, **params)
    fields = {k: nth_radial_derivative(group, norm, f, k, mode=mode) for k in orders}
    # the highest-order norm is measured first: the derivative stack a
    # quasi-radial field builds for it on a node set serves every lower
    # order, so no stack is built twice; the rest follow in table order
    first = weighted_lp_norm(group, norm, fields[top.k], top.weight, top.p, config)
    detail = dict(sides.detail)

    def measure(spec, key):
        if isinstance(spec, Norm):
            if spec is top:
                out = first
            else:
                out = weighted_lp_norm(group, norm, fields[spec.k], spec.weight, spec.p, config)
            if key:
                detail[key] = out
        else:
            out = weighted_combo_l2(group, norm, f, spec.terms, config, mode=mode, fields=fields)
            if key:
                detail.setdefault(key, []).append(out)
        return out

    def measured(side):
        return [(coef, [(*measure(spec, key), e) for spec, e, key in facs])
                for coef, facs in side]

    lhs, lhs_err = _side(measured(sides.lhs))
    rhs, rhs_err = _side(measured(sides.rhs))
    margin = 2.0 * (lhs_err + rhs_err) + _cushion(lhs, rhs)
    if row.kind == "identity":
        satisfied = abs(lhs - rhs) <= margin
    else:
        satisfied = lhs <= rhs + margin
    return InequalityReport(
        check_id=row.id,
        group=group.name,
        norm=norm.kind,
        field_id=f.field_id,
        kind=row.kind,
        params=params,
        constant=sides.constant,
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        satisfied=satisfied,
        trivial=sides.trivial,
        config_digest=config.digest(),
        detail=detail,
    )


# -- named wrappers ---------------------------------------------------------------


def ckn_report(group, norm, f, p, alpha, beta, config=None, mode="auto"):
    """Main weighted inequality: ``(|Q-gamma|/p) ||f N^(-gamma/p)||_p^p <=
    ||Rf N^(-alpha)||_p * ||f N^(-beta/(p-1))||_p^(p-1)`` with
    ``gamma = alpha + beta + 1``."""
    return evaluate("ckn", group, norm, f, {"p": p, "alpha": alpha, "beta": beta},
                    config, mode)


def hardy_report(group, norm, f, p, alpha=0.0, config=None, mode="auto"):
    """Weighted first-order bound: ``||f N^-(alpha+1)||_p <=
    (p/|Q - p(alpha+1)|) ||Rf N^-alpha||_p``."""
    return evaluate("hardy", group, norm, f, {"p": p, "alpha": alpha}, config, mode)


def uncertainty_report(group, norm, f, p, variant="up1p", alpha=0.0, config=None, mode="auto"):
    """Uncertainty-type bounds.

    ``up1p``: ``||f||_2^2 <= (p/(Q-p)) ||Rf||_p ||N f||_{p/(p-1)}`` for
    ``1 < p < Q``.  ``hpw1`` / ``hpw2`` are the two classical weighted
    corollaries of the main inequality (``beta = alpha(p-1) - 1`` and
    ``(alpha, beta) = (-p, p-1)`` respectively).
    """
    if variant not in ALIASES["uncertainty"]:
        raise InvalidParameterError(f"unknown uncertainty variant {variant!r}")
    return evaluate(variant, group, norm, f, {"p": p, "alpha": alpha}, config, mode)


def higher_order_report(group, norm, f, p, theta, k, config=None, mode="auto"):
    """Iterated bound ``||f N^-(theta+1)||_p <= A_(theta,k)
    ||R^k f N^-(theta+1-k)||_p``."""
    return evaluate("higher", group, norm, f, {"p": p, "theta": theta, "k": k}, config, mode)


def higher_order_pair_report(group, norm, f, p, alpha, beta, k=0, m=0, config=None, mode="auto"):
    """Two-sided iterated bound: derivatives of order ``m+1`` and ``k``
    paired against the main inequality's left-hand side.

    ``k = m = 0`` reproduces the main inequality exactly.
    """
    point = {"p": p, "alpha": alpha, "beta": beta, "k": k, "m": m}
    return evaluate("pair", group, norm, f, point, config, mode)


def l2_identity_report(group, norm, f, alpha=0.0, k=1, config=None, mode="auto"):
    """Exact L^2 decomposition of ``||R^k f N^-alpha||_2^2``.

    The squared norm equals a weighted norm of ``f`` plus an explicit sum
    of nonnegative remainders — an identity, valid for every ``alpha`` and
    ``k >= 1`` (complex fields included).
    """
    return evaluate("l2-identity", group, norm, f, {"alpha": alpha, "k": k}, config, mode)


def l2_sharp_report(group, norm, f, alpha=0.0, k=1, config=None, mode="auto"):
    """Sharp L^2 iterated bound ``||f N^-(k+alpha)||_2 <=
    C ||R^k f N^-alpha||_2`` (needs ``Q >= 3``)."""
    return evaluate("l2-sharp", group, norm, f, {"alpha": alpha, "k": k}, config, mode)


def combined_report(group, norm, f, alpha, beta, k=1, variant="first", config=None, mode="auto"):
    """L^2 bounds mixing two derivative orders (``p = 2`` throughout).

    ``variant="first"`` pairs ``Rf`` with ``R^k f``; ``variant="high"``
    pairs ``R^(k+1) f`` with ``f`` itself.
    """
    if variant not in VARIANTS["combined"]:
        raise InvalidParameterError(f"unknown combined variant {variant!r}")
    return evaluate(VARIANTS["combined"][variant], group, norm, f,
                    {"alpha": alpha, "beta": beta, "k": k}, config, mode)
