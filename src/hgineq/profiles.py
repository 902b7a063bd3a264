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
``annulus_cutoff``       a rising and a falling step on disjoint bands

The smooth step uses the classical partition function
``s(t) = a(t) / (a(t) + a(1-t))`` with ``a(t) = exp(-1/t)``; its stack is
computed by a quotient recurrence which is exact on the plateaus (all
derivatives return exactly 0 there, values exactly 0 or 1).

The cutoff is evaluated band-wise: its two transition bands are disjoint,
so its stack is exactly 0 outside ``(lo, hi)``, exactly 1 (derivatives 0)
on the plateau, and that band's step inside each band.  Only band points
go through the ``exp(-1/t)`` recurrences, one call for both bands.  Every
recurrence keeps each entry's float operations and their order, so stacks
equal those of the plain double loops bit for bit (``tests/test_profiles.py``
keeps those loops as the reference).  The stack is written into one array
a row at a time, each row's band points by a 1-D scatter.

A cutoff depends on its four radii only, so every field, scan entry and
report that carries the same cutoff shares its stack on a memoized radial
node array (:func:`~hgineq.quadrature.is_radial_node_set`).  No other piece
is kept: exp-power cores depend on ``(p, alpha, beta)`` and corpus bumps
are random, so neither recurs.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .errors import InvalidParameterError
from .memo import Memo, read_only
from .quadrature import is_radial_node_set

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
        holding ``g(r), g'(r), ..., g^(order)(r)``.  An entry depends on
        its own radius only, bit for bit, wherever that radius sits in
        ``r``, as for every catalog piece: fields evaluate a profile once
        per run of equal radii and repeat the values.
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


# binomial coefficients C(k, i) as floats, row k, column i
_BINOM = np.array([[comb(k, i) for i in range(_MAX_ORDER + 1)] for k in range(_MAX_ORDER + 1)],
                  dtype=float)


def _leibniz(a, b):
    """Stack of the product from two stacks: ``(ab)^(k) = sum C(k,i) a^(i) b^(k-i)``.

    Term ``i`` is added to every entry ``k >= i`` at once; each entry still
    sums its terms in the order ``i = 0, 1, ..., k``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    order = a.shape[0] - 1
    if order == 0:
        return a[0] * b
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    np.multiply(a[0], b, out=out)
    for i in range(1, order + 1):
        c = _BINOM[i:order + 1, i].reshape((-1,) + (1,) * (out.ndim - 1))
        out[i:] += c * a[i] * b[:order + 1 - i]
    return out


def _exp_stack(w):
    """Stack of ``exp(w)`` from the stack of ``w`` via ``h' = w' h``."""
    order = w.shape[0] - 1
    h = np.empty(w.shape, dtype=np.result_type(w, float))
    np.exp(w[0], out=h[0, ...])
    for m in range(1, order + 1):
        np.multiply(w[1], h[m - 1], out=h[m, ...])
        for i in range(1, m):
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
        if order == 0:  # the entry below, one array worked in place
            w = np.log(r[None])
            w -= center
            w *= w
            w *= -0.5 / width**2
            return amp * np.exp(w, out=w)
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
    w = np.empty((order + 1,) + t.shape)
    np.divide(-1.0, t, out=w[0])
    fact = 1.0
    for k in range(1, order + 1):
        w[k] = ((-1.0) ** (k + 1)) * fact * t ** (-(k + 1.0))
        fact *= k + 1
    return w


def _step_band(t, order):
    """Stack of ``s(t) = a(t)/(a(t)+a(1-t))`` at points ``pad < t < 1 - pad``."""
    n = t.size
    if order == 0:  # the entry below, one array worked in place
        a = np.divide(-1.0, np.concatenate((t, 1.0 - t)))
        np.exp(a, out=a)
        s, d = a[:n], a[n:]
        d += s
        s /= d
        return s[None]
    # t and 1 - t in one array, freed once its reciprocal stack is taken
    h = _exp_stack(_neg_reciprocal_stack(np.concatenate((t, 1.0 - t)), order))
    s, d = h[:, :n], h[:, n:]
    d[1::2] *= -1.0  # chain rule through t -> 1 - t
    d += s
    # quotient recurrence in place: once entry i of ``s`` is s^(i), its
    # term is subtracted from every later entry, in the order i = 0, 1, ...
    for i in range(order + 1):
        s[i] /= d[0]
        s[i + 1:] -= _BINOM[i + 1:order + 1, i, None] * s[i] * d[1:order + 1 - i]
    return s


def smooth_step_stack(t, order):
    """Derivative stack of ``s(t) = a(t)/(a(t)+a(1-t))``, ``a = exp(-1/t)``.

    Exactly 0 for ``t <= pad`` and exactly 1 for ``t >= 1 - pad`` (with all
    derivatives exactly 0 there), which double precision makes lossless.
    """
    t = np.asarray(t, dtype=float)
    x = t.ravel()
    one = x >= 1.0 - _STEP_PAD
    mid = np.flatnonzero((x > _STEP_PAD) & ~one)
    return _assemble(one, mid, _step_band(x[mid], order), t.shape)


def _assemble(one, band, s, shape):
    """The stack that is 1 where ``one``, ``s`` at flat indices ``band`` and
    0 elsewhere, shaped ``(order + 1,) + shape``; written a row at a time."""
    out = np.empty(s.shape[:1] + shape)
    rows = out.reshape(len(s), one.size)
    rows[0] = one
    rows[1:] = 0.0
    for row, vals in zip(rows, s):
        row[band] = vals
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


#: cutoff stacks: 10 cover the paired node set of each default scan
#: carrier and the corpus annulus, and sigma's annulus on its two sets
_CUTOFF_STACKS = Memo(16)  # (radii, id(node array)) -> (node array, read-only stack)


def annulus_cutoff(lo, lo_top, hi_bottom, hi):
    """Smooth cutoff equal to 1 on ``[lo_top, hi_bottom]``, 0 outside ``(lo, hi)``.

    The two transition bands ``[lo, lo_top]`` and ``[hi_bottom, hi]`` use
    the canonical ``exp(-1/t)`` step, rising in ``t = (r - lo)/(lo_top - lo)``
    and falling in ``t = (hi - r)/(hi - hi_bottom)``.  The bands are
    disjoint, so at each point at most one step is off its plateau.

    On a memoized radial node array the stack is kept, matched by the
    radii's values and the array's identity, and returned read-only (see
    the module docstring); any other array is evaluated afresh.  A lower order is a slice of the
    kept stack, bit for bit a fresh one; a higher order recomputes it.
    """
    if not (0.0 < lo < lo_top <= hi_bottom < hi):
        raise InvalidParameterError("cutoff bands must satisfy 0 < lo < lo_top <= hi_bottom < hi")
    lo, lo_top, hi_bottom, hi = radii = float(lo), float(lo_top), float(hi_bottom), float(hi)
    rise, fall = 1.0 / (lo_top - lo), 1.0 / (hi - hi_bottom)

    def band_stack(r, order):
        x = r.ravel()
        # one full-size t array at a time: rising step, then falling step
        t = x - lo
        t *= rise
        one = t >= 1.0 - _STEP_PAD
        up = ((t > _STEP_PAD) & ~one).nonzero()[0]
        t_up = t[up]
        np.subtract(hi, x, out=t)
        t *= fall
        flat = t >= 1.0 - _STEP_PAD
        down = ((t > _STEP_PAD) & ~flat).nonzero()[0]
        one &= flat
        t_band = np.concatenate((t_up, t[down]))
        del t, flat, t_up
        band = np.concatenate((up, down))
        s = _step_band(t_band, order)
        if order == 0:  # the plateau as floats, the band points by one scatter
            out = one.astype(float)
            out[band] = s[0]
            return out.reshape((1,) + r.shape)
        n = up.size
        for k in range(1, order + 1):
            s[k, :n] *= rise**k
            s[k, n:] *= (-fall) ** k
        return _assemble(one, band, s, r.shape)

    def stack(r, order):
        if not is_radial_node_set(r):
            return band_stack(r, order)
        ids = radii + (id(r),)
        entry = _CUTOFF_STACKS.hit(ids)
        if entry is None or len(entry[1]) <= order:
            entry = _CUTOFF_STACKS.keep(ids, (r, read_only(band_stack(r, order))))
        return entry[1][:order + 1]

    return RadialProfile(stack, support=(lo, hi), label=f"cutoff[{lo:g},{hi:g}]")
