"""Radial profiles with derivative stacks of arbitrary order.

A :class:`RadialProfile` represents a function ``g(r)`` on ``r > 0``
together with the ability to evaluate ``g, g', ..., g^(K)`` simultaneously
("derivative stack") at vectorized inputs.  Stacks compose exactly under
sum, product (Leibniz), exponential and quotient recurrences, so profiles
built from catalog pieces have *analytic* derivatives of every order — no
finite differencing is involved anywhere in this module.

Catalog pieces
--------------
``power_profile``        ``c * r**d``
``exp_power_profile``    ``exp(-c * (r**lam - r_ref**lam))``
``log_gaussian_profile`` ``amp * exp(-(log r - mu)**2 / (2 s**2))``
``gaussian_profile``     ``exp(-r**2 / (2 scale**2))``
``smooth_step_profile``  C^inf step built from ``exp(-1/t)``
``annulus_cutoff``       product of a rising and a falling step

The smooth step uses the classical partition function
``s(t) = a(t) / (a(t) + a(1-t))`` with ``a(t) = exp(-1/t)``; its stack is
computed by a quotient recurrence which is exact on the plateaus (all
derivatives return exactly 0 there, values exactly 0 or 1).
"""

from __future__ import annotations

from math import comb

import numpy as np

from .errors import InvalidParameterError

# exp(-1/t) underflows to exactly 0.0 for t <= 1/745; padding the plateau
# at 1e-4 is therefore exact in double precision.
_STEP_PAD = 1e-4

_MAX_ORDER = 64


class RadialProfile:
    """A smooth function of ``r > 0`` with analytic derivative stacks.

    Parameters
    ----------
    stack : callable
        ``stack(r, order) -> ndarray`` of shape ``(order + 1,) + r.shape``
        holding ``g(r), g'(r), ..., g^(order)(r)``.
    support : tuple or None
        ``(r_lo, r_hi)`` outside of which the profile vanishes identically,
        or ``None`` if no such annulus is declared.
    label : str
        Free-form description used in diagnostics.
    derived_from : tuple or None
        ``(parent, k)`` for the profile ``parent.derivative(k)``.
    """

    __slots__ = ("_stack", "support", "label", "derived_from")

    def __init__(self, stack, support=None, label="", derived_from=None):
        if support is not None:
            lo, hi = support
            if not (0.0 < lo < hi):
                raise InvalidParameterError("support must satisfy 0 < lo < hi")
            support = (float(lo), float(hi))
        self._stack = stack
        self.support = support
        self.label = label
        self.derived_from = derived_from

    def derivatives(self, r, order):
        """Evaluate the derivative stack up to ``order`` at points ``r``."""
        if not isinstance(order, (int, np.integer)) or not 0 <= order <= _MAX_ORDER:
            raise InvalidParameterError(f"order must be an int in [0, {_MAX_ORDER}]")
        r = np.asarray(r, dtype=float)
        out = self._stack(r, int(order))
        return np.asarray(out)

    def __call__(self, r):
        return self.derivatives(r, 0)[0]

    def derivative(self, k=1):
        """The profile ``g^(k)`` as a new :class:`RadialProfile`."""
        if k == 0:
            return self
        parent = self

        def stack(r, order):
            return parent.derivatives(r, order + k)[k:]

        return RadialProfile(stack, support=self.support, label=f"D^{k}[{self.label}]",
                             derived_from=(self, k))

    def root(self):
        """``(g, k)`` such that this profile is ``g^(k)`` and ``g`` was not
        made by :meth:`derivative`; entry ``j`` of this profile's stack is
        entry ``k + j`` of ``g``'s."""
        prof, k = self, 0
        while prof.derived_from is not None:
            prof, j = prof.derived_from
            k += j
        return prof, k

    def with_support(self, support):
        """Same profile with an explicitly declared support annulus."""
        return RadialProfile(self._stack, support=support, label=self.label)

    def scale_argument(self, lam):
        """The profile ``r -> g(lam * r)`` (used by dilations)."""
        lam = float(lam)
        if lam <= 0:
            raise InvalidParameterError("argument scale must be positive")
        parent = self
        sup = None if self.support is None else (self.support[0] / lam, self.support[1] / lam)

        def stack(r, order):
            s = np.array(parent.derivatives(lam * np.asarray(r, dtype=float), order))
            for k in range(1, order + 1):
                s[k] *= lam**k
            return s

        return RadialProfile(stack, support=sup, label=f"{self.label}@{lam:g}r")

    # -- algebra ---------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, RadialProfile):
            a, b = self, other

            def stack(r, order):
                return _leibniz(a.derivatives(r, order), b.derivatives(r, order))

            return RadialProfile(
                stack,
                support=_intersect_support(a.support, b.support),
                label=f"({a.label})*({b.label})",
            )
        c = complex(other) if isinstance(other, complex) else float(other)
        parent = self

        def stack(r, order):
            return np.asarray(parent.derivatives(r, order)) * c

        return RadialProfile(stack, support=self.support, label=f"{other!r}*({self.label})")

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, RadialProfile):
            return NotImplemented
        a, b = self, other

        def stack(r, order):
            return a.derivatives(r, order) + b.derivatives(r, order)

        if a.support is None or b.support is None:
            sup = None
        else:
            sup = (min(a.support[0], b.support[0]), max(a.support[1], b.support[1]))
        return RadialProfile(stack, support=sup, label=f"({a.label})+({b.label})")

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        if not isinstance(other, RadialProfile):
            return NotImplemented
        return self + (-other)


def _intersect_support(a, b):
    if a is None:
        return b
    if b is None:
        return a
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    if lo >= hi:
        raise InvalidParameterError("profile supports do not overlap")
    return (lo, hi)


def _leibniz(a, b):
    """Stack of the product from two stacks: ``(ab)^(k) = sum C(k,i) a^(i) b^(k-i)``."""
    a = np.asarray(a)
    b = np.asarray(b)
    order = a.shape[0] - 1
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    for k in range(order + 1):
        for i in range(k + 1):
            out[k] += comb(k, i) * a[i] * b[k - i]
    return out


def _exp_stack(w):
    """Stack of ``exp(w)`` from the stack of ``w`` via ``h' = w' h``."""
    order = w.shape[0] - 1
    h = np.zeros(w.shape, dtype=np.result_type(w, float))
    h[0] = np.exp(w[0])
    for m in range(1, order + 1):
        for i in range(m):
            h[m] += comb(m - 1, i) * w[i + 1] * h[m - 1 - i]
    return h


def constant_profile(value):
    value = complex(value) if isinstance(value, complex) else float(value)

    def stack(r, order):
        out = np.zeros((order + 1,) + np.shape(r), dtype=type(value))
        out[0] = value
        return out

    return RadialProfile(stack, label=f"const {value!r}")


def power_profile(exponent, coeff=1.0):
    """``coeff * r**exponent`` with exact falling-factorial derivatives."""
    exponent = float(exponent)

    def stack(r, order):
        r = np.asarray(r, dtype=float)
        dt = complex if isinstance(coeff, complex) else float
        out = np.zeros((order + 1,) + r.shape, dtype=dt)
        ff = 1.0
        for k in range(order + 1):
            out[k] = (coeff * ff) * r ** (exponent - k)
            ff *= exponent - k
        return out

    return RadialProfile(stack, label=f"{coeff!r}*r^{exponent:g}")


def exp_power_profile(coeff, lam, r_ref=0.0):
    """``exp(-coeff * (r**lam - r_ref**lam))``.

    ``r_ref`` shifts the exponent so the profile equals 1 at ``r_ref``;
    setting it to the inner edge of the working annulus keeps growing
    branches (``coeff/lam < 0`` cases) inside floating-point range.
    """
    coeff = float(coeff)
    lam = float(lam)
    if lam == 0.0:
        raise InvalidParameterError("lam must be nonzero; use power_profile instead")
    shift = coeff * r_ref**lam if r_ref else 0.0

    def stack(r, order):
        r = np.asarray(r, dtype=float)
        w = np.zeros((order + 1,) + r.shape)
        w[0] = shift - coeff * r**lam
        ff = lam
        for k in range(1, order + 1):
            w[k] = -coeff * ff * r ** (lam - k)
            ff *= lam - k
        return _exp_stack(w)

    return RadialProfile(stack, label=f"exp(-{coeff:g}(r^{lam:g}-ref))")


def gaussian_profile(scale=1.0):
    """``exp(-r**2 / (2 scale**2))``."""
    if scale <= 0:
        raise InvalidParameterError("scale must be positive")
    p = exp_power_profile(0.5 / scale**2, 2.0)
    p.label = f"gauss({scale:g})"
    return p


def log_gaussian_profile(amp, center, width):
    """``amp * exp(-(log r - center)**2 / (2 width**2))``.

    Log-normal bumps: smooth on all of ``(0, inf)``, decay faster than any
    power at both 0 and infinity, and their derivative stacks stay
    well-scaled over huge dynamic ranges.  ``amp`` may be complex.
    """
    if width <= 0:
        raise InvalidParameterError("width must be positive")
    amp = complex(amp) if isinstance(amp, complex) else float(amp)

    def stack(r, order):
        r = np.asarray(r, dtype=float)
        v = np.zeros((order + 1,) + r.shape)
        v[0] = np.log(r) - center
        fact = 1.0
        for k in range(1, order + 1):
            v[k] = ((-1.0) ** (k - 1)) * fact * r ** (-float(k))
            fact *= k
        w = _leibniz(v, v) * (-0.5 / width**2)
        return amp * _exp_stack(w)

    return RadialProfile(stack, label=f"logbump({center:g},{width:g})")


def _neg_reciprocal_stack(t, order):
    # derivative stack of w(t) = -1/t on t > 0
    w = np.zeros((order + 1,) + t.shape)
    w[0] = -1.0 / t
    fact = 1.0
    for k in range(1, order + 1):
        w[k] = ((-1.0) ** (k + 1)) * fact * t ** (-(k + 1.0))
        fact *= k + 1
    return w


def smooth_step_stack(t, order):
    """Derivative stack of ``s(t) = a(t)/(a(t)+a(1-t))``, ``a = exp(-1/t)``.

    Exactly 0 for ``t <= pad`` and exactly 1 for ``t >= 1 - pad`` (with all
    derivatives exactly 0 there), which double precision makes lossless.
    """
    t = np.asarray(t, dtype=float)
    out = np.zeros((order + 1,) + t.shape)
    hi = t >= 1.0 - _STEP_PAD
    out[0][hi] = 1.0
    mid = (t > _STEP_PAD) & ~hi
    if np.any(mid):
        tm = t[mid]
        a = _exp_stack(_neg_reciprocal_stack(tm, order))
        ab = _exp_stack(_neg_reciprocal_stack(1.0 - tm, order))
        for k in range(1, order + 1, 2):
            ab[k] = -ab[k]  # chain rule through t -> 1 - t
        d = a + ab
        s = np.zeros_like(a)
        s[0] = a[0] / d[0]
        for k in range(1, order + 1):
            acc = a[k].copy()
            for i in range(k):
                acc -= comb(k, i) * s[i] * d[k - i]
            s[k] = acc / d[0]
        for k in range(order + 1):
            out[k][mid] = s[k]
    return out


def smooth_step_profile(lo, hi, rising=True):
    """C^inf step in ``r``: 0 before ``lo`` and 1 after ``hi`` (rising),
    or 1 before ``lo`` and 0 after ``hi`` (falling)."""
    lo, hi = float(lo), float(hi)
    if not lo < hi:
        raise InvalidParameterError("step requires lo < hi")
    scale = 1.0 / (hi - lo)

    def stack(r, order):
        r = np.asarray(r, dtype=float)
        t = (r - lo) * scale if rising else (hi - r) * scale
        s = smooth_step_stack(t, order)
        fac = scale if rising else -scale
        for k in range(1, order + 1):
            s[k] *= fac**k
        return s

    kind = "rise" if rising else "fall"
    return RadialProfile(stack, label=f"{kind}[{lo:g},{hi:g}]")


def annulus_cutoff(lo, lo_top, hi_bottom, hi):
    """Smooth cutoff equal to 1 on ``[lo_top, hi_bottom]``, 0 outside ``(lo, hi)``.

    The two transition bands ``[lo, lo_top]`` and ``[hi_bottom, hi]`` use
    the canonical ``exp(-1/t)`` step.
    """
    if not (0.0 < lo < lo_top <= hi_bottom < hi):
        raise InvalidParameterError("cutoff bands must satisfy 0 < lo < lo_top <= hi_bottom < hi")
    chi = smooth_step_profile(lo, lo_top, rising=True) * smooth_step_profile(
        hi_bottom, hi, rising=False
    )
    return RadialProfile(chi._stack, support=(lo, hi), label=f"cutoff[{lo:g},{hi:g}]")
