"""Near-extremizers and sharpness scans for the main inequality.

The untruncated extremal profiles solve ``g'(r) = -c_s r^(lam-1) g(r)``
with the *signed* constant ``c_s = (Q - gamma)/p`` and the balance
exponent ``lam = alpha - beta/(p-1) + 1``:

- ``lam != 0``:  ``g = exp(-(c_s/lam) r^lam)``  (exponential branch),
- ``lam == 0``:  ``g = r^(-c_s)``               (power branch).

Either way the two Hoelder factors on the right-hand side are pointwise
proportional on the carrier, and a smoothly truncated copy is measured on
the carrier annulus ``[eps, r_out]`` plus its cutoff bands.  Whether its
quotient approaches the sharp constant ``|Q - gamma|/p`` as the carrier
widens depends on the branch:

- power branch: yes.  Every decade of carrier contributes equal mass and
  the relative gap decays like ``1 / log(r_out/eps)``; the default
  schedule therefore descends to ``[1e-56, 1e56]``, which log-panel
  quadrature resolves routinely.
- exponential branch: not in general.  The cutoff bands' derivative terms
  need not shrink as the carrier widens; where the profile needs no cutoff
  on one side, the inner band's term grows like
  ``eps^(Q - (1 + alpha) p)``.  On ``r:3`` at ``(p, alpha, beta) =
  (3, 0.5, 1)`` the attained quotients run 6.33, 17.1, 160, ... 1.6e28 for
  ``eps = 1e-1 ... 1e-56`` (about ``eps^(-1/2)``) against a sharp constant
  of 1/6, which the untruncated profile attains.  So on this branch a scan
  shows that no entry falls below the constant, not that the constant is
  approached.

Profiles are normalized at a reference radius inside the carrier so their
values stay within double-precision range; schedule entries that would
overflow regardless (extreme ``|c_s|`` or ``lam``) are skipped and
recorded, never silently clipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import nth_radial_derivative, weighted_lp_norm
from .constants import ckn_constant, validate_finite, validate_p
from .errors import (
    DegenerateConstantError,
    InvalidParameterError,
    OutsidePureRegionError,
)
from .fields import radial_field
from .profiles import annulus_cutoff, exp_power_profile, power_profile
from .quadrature import DEFAULT_CONFIG

#: eps / r_out pairs; on the power branch the gap to the sharp constant
#: shrinks like 1/log(r_out/eps), so the deep tail does the heavy lifting.
DEFAULT_SCHEDULE = (
    (1e-1, 1e1),
    (1e-2, 1e2),
    (1e-4, 1e4),
    (1e-8, 1e8),
    (1e-16, 1e16),
    (1e-32, 1e32),
    (1e-56, 1e56),
)

_POWER_BRANCH_TOL = 1e-12
_MAX_SAFE_LOG = 600.0  # p * log-magnitude budget, with headroom below exp overflow


@dataclass(frozen=True)
class ExtremizerFamily:
    """Truncated near-extremizer parameters.

    The profile follows the extremal ODE exactly on the carrier
    ``[eps, r_out]`` and is smoothly truncated over ``[eps/2, eps]`` and
    ``[r_out, 2 r_out]``.
    """

    p: float
    alpha: float
    beta: float
    eps: float
    r_out: float

    def __post_init__(self):
        validate_p(self.p)
        if not 0 < self.eps < self.r_out:
            raise InvalidParameterError("need 0 < eps < r_out")

    @property
    def gamma(self):
        return self.alpha + self.beta + 1.0

    @property
    def lam(self):
        return self.alpha - self.beta / (self.p - 1.0) + 1.0

    @property
    def branch(self):
        return "power" if abs(self.lam) <= _POWER_BRANCH_TOL else "exponential"

    def signed_constant(self, q_dim):
        return (q_dim - self.gamma) / self.p

    def carrier(self):
        return (0.5 * self.eps, 2.0 * self.r_out)


def _exp_reference(family, c_s):
    """Normalization radius: the exponent ``-(c_s/lam)(r^lam - ref^lam)``
    is then <= 0 throughout the carrier side where the profile is heavy."""
    if c_s < 0:
        return family.r_out
    return 0.0 if family.lam > 0 else family.eps


def _log_magnitude_budget(family, q_dim):
    """Estimate of ``p * max log`` over the carrier of the profile and its
    first derivative; used to refuse un-representable entries.

    Only growth counts against the budget: a profile that *underflows* to
    zero deep in a truncation band integrates harmlessly, while one that
    overflows poisons every quadrature it touches.  (The power branch has
    symmetric log-range, so there growth and decay coincide.)
    """
    c_s = family.signed_constant(q_dim)
    lo, hi = family.carrier()
    max_abs_log_r = max(abs(math.log(lo)), abs(math.log(hi)))
    if family.branch == "power":
        mid = math.sqrt(family.eps * family.r_out)
        log_g = abs(c_s) * max(abs(math.log(lo / mid)), abs(math.log(hi / mid)))
        lam = 0.0
    else:
        lam = family.lam
        if max(abs(lam), abs(lam - 1.0)) * max_abs_log_r > 700.0:
            return math.inf  # r**lam itself leaves double range
        ref = _exp_reference(family, c_s)
        scale = c_s / lam
        ref_pow = ref**lam if ref else 0.0
        # log g is monotone in r, so its positive part peaks at an endpoint
        log_g = max(
            -scale * (lo**lam - ref_pow), -scale * (hi**lam - ref_pow), 0.0
        )
    deriv_extra = max((lam - 1.0) * math.log(lo), (lam - 1.0) * math.log(hi), 0.0)
    deriv_extra += max(math.log(max(abs(c_s), 1.0)), 0.0)
    return family.p * (log_g + deriv_extra)


def extremizer_profile(group, family):
    """Truncated extremal profile for the group's homogeneous dimension.

    Raises
    ------
    DegenerateConstantError
        If ``gamma == Q`` (the constant vanishes; no extremal family).
    InvalidParameterError
        If the profile cannot be represented in double precision on the
        requested carrier.
    """
    q_dim = group.homogeneous_dimension
    if family.gamma == q_dim:
        raise DegenerateConstantError("gamma == Q: constant vanishes", factor_index=0)
    c_s = family.signed_constant(q_dim)
    budget = _log_magnitude_budget(family, q_dim)
    if budget > _MAX_SAFE_LOG:
        raise InvalidParameterError(
            f"extremizer magnitude exceeds double range (p*max|log g| ~ {budget:.0f})"
        )
    if family.branch == "power":
        mid = math.sqrt(family.eps * family.r_out)
        core = power_profile(-c_s, coeff=mid**c_s)
    else:
        core = exp_power_profile(c_s / family.lam, family.lam, r_ref=_exp_reference(family, c_s))
    lo, hi = family.carrier()
    chi = annulus_cutoff(lo, family.eps, family.r_out, hi)
    return (chi * core).with_support((lo, hi))


def extremizer_field(group, norm, family, field_id=""):
    """The truncated extremal profile as a quasi-radial field."""
    prof = extremizer_profile(group, family)
    fid = field_id or (
        f"extremal[p={family.p:g},a={family.alpha:g},b={family.beta:g},"
        f"eps={family.eps:g},R={family.r_out:g}]"
    )
    return radial_field(prof, norm, field_id=fid)


def hoelder_residual(group, norm, family, x):
    """Relative mismatch of the two Hoelder factors at points ``x``.

    Zero (to rounding) on the carrier ``[eps, r_out]``, strictly positive
    inside the truncation bands where the cutoff derivative breaks the
    proportionality.  Points outside the truncated carrier raise
    :class:`OutsidePureRegionError`.
    """
    prof = extremizer_profile(group, family)
    x = np.asarray(x, dtype=float)
    r = np.atleast_1d(np.asarray(norm(x)))
    lo, hi = family.carrier()
    if np.any((r <= lo) | (r >= hi)):
        raise OutsidePureRegionError("point lies outside the truncated carrier")
    q_dim = group.homogeneous_dimension
    const = ckn_constant(q_dim, family.gamma, family.p)
    stack = prof.derivatives(r, 1)
    u = np.abs(stack[1]) * r ** (-family.alpha)
    v = const * np.abs(stack[0]) * r ** (-family.beta / (family.p - 1.0))
    res = np.abs(u - v) / np.maximum(np.maximum(u, v), 1e-300)
    return float(res[0]) if np.asarray(norm(x)).ndim == 0 else res


def attained_quotient(group, norm, family, config=None):
    """The inequality quotient ``rhs / ||f N^(-gamma/p)||_p^p`` of the
    truncated extremizer; returns ``(value, error)``."""
    config = config or DEFAULT_CONFIG
    f = extremizer_field(group, norm, family)
    p = family.p
    rf = nth_radial_derivative(group, norm, f, 1)
    # Rf first: its norm builds the root stack to order 1, and f's reuse it
    b_val, b_err = weighted_lp_norm(group, norm, rf, family.alpha, p, config)
    a_val, a_err = weighted_lp_norm(group, norm, f, family.gamma / p, p, config)
    c_val, c_err = weighted_lp_norm(group, norm, f, family.beta / (p - 1.0), p, config)
    if a_val == 0:
        raise InvalidParameterError("extremizer has vanishing weighted norm")
    value = b_val * c_val ** (p - 1.0) / a_val**p
    rel = b_err / max(b_val, 1e-300) + (p - 1.0) * c_err / max(c_val, 1e-300)
    rel += p * a_err / a_val
    return value, value * rel


@dataclass(frozen=True)
class SharpnessScan:
    """Result of a truncation-schedule scan toward the sharp constant."""

    group: str
    norm: str
    p: float
    alpha: float
    beta: float
    target: float
    entries: tuple
    config_digest: str

    @property
    def best(self):
        """Entry with the smallest attained quotient (on the power branch
        it approaches the sharp constant from above as the carrier widens)."""
        done = [e for e in self.entries if e.get("attained") is not None]
        return min(done, key=lambda e: e["attained"]) if done else None

    @property
    def best_gap(self):
        """Relative excess of the best attained quotient over the target."""
        b = self.best
        if b is None:
            return float("nan")
        return (b["attained"] - self.target) / self.target

    def to_dict(self):
        best = self.best
        return {
            "group": self.group,
            "norm": self.norm,
            "p": self.p,
            "alpha": self.alpha,
            "beta": self.beta,
            "target": self.target,
            "entries": [dict(e) for e in self.entries],
            "best_attained": None if best is None else best["attained"],
            "best_gap": None if best is None else self.best_gap,
            "config_digest": self.config_digest,
        }


def sharpness_scan(group, norm, p, alpha, beta, schedule=None, config=None):
    """Scan a truncation schedule and report how closely the extremal
    family attains the sharp constant.

    ``schedule`` is a sequence of ``(eps, r_out)`` pairs with ``eps``
    non-increasing and ``r_out`` non-decreasing (default:
    :data:`DEFAULT_SCHEDULE`).  Entries whose profile would overflow
    double precision carry a ``skipped`` reason instead of a value.
    """
    config = config or DEFAULT_CONFIG
    validate_p(p)
    validate_finite(alpha=alpha, beta=beta)
    q_dim = group.homogeneous_dimension
    target = ckn_constant(q_dim, alpha + beta + 1.0, p)
    if target == 0.0:
        raise DegenerateConstantError("gamma == Q: nothing to scan", factor_index=0)
    sched = [(float(e), float(r)) for e, r in (schedule if schedule is not None else DEFAULT_SCHEDULE)]
    if not sched:
        raise InvalidParameterError("schedule must be nonempty")
    for (e0, r0), (e1, r1) in zip(sched, sched[1:]):
        if e1 > e0 or r1 < r0:
            raise InvalidParameterError(
                "schedule must have non-increasing eps and non-decreasing r_out"
            )
    entries = []
    for eps, r_out in sched:
        family = ExtremizerFamily(p=p, alpha=alpha, beta=beta, eps=eps, r_out=r_out)
        entry = {"eps": eps, "r_out": r_out, "branch": family.branch}
        try:
            value, err = attained_quotient(group, norm, family, config)
        except InvalidParameterError as exc:
            entry["attained"] = None
            entry["skipped"] = str(exc)
        else:
            entry["attained"] = value
            entry["margin"] = err
            entry["gap"] = (value - target) / target
        entries.append(entry)
    return SharpnessScan(
        group=group.name,
        norm=norm.kind,
        p=p,
        alpha=alpha,
        beta=beta,
        target=target,
        entries=tuple(entries),
        config_digest=config.digest(),
    )
