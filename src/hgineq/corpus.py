"""Deterministic corpora of smooth compactly supported test fields.

Fields are log-normal bump mixtures times a smooth annulus cutoff, so
their radial derivative stacks are analytic to all orders; a configurable
fraction gets a low-degree polynomial factor (breaking quasi-radiality)
to exercise the orbit expansion and the polar-grid integration route.  The same
``(seed, count, ...)`` always regenerates bit-identical fields.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .fields import PolyFactor, product_field, radial_field
from .profiles import annulus_cutoff, log_gaussian_profile


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of a generated corpus.

    ``radial_fraction`` of the fields are quasi-radial; the rest carry a
    polynomial factor.  Amplitudes are complex for roughly half the bumps
    when ``complex_amplitudes`` is set.
    """

    count: int = 50
    seed: int = 0
    annulus: tuple = (0.2, 5.0)
    radial_fraction: float = 0.8
    max_bumps: int = 3
    complex_amplitudes: bool = True

    def __post_init__(self):
        for name, least in (("count", 1), ("seed", 0), ("max_bumps", 1)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
                raise InvalidParameterError(f"{name} must be an integer >= {least}, not {value!r}")
        lo, hi = self.annulus
        if not 0 < lo < hi < math.inf:
            raise InvalidParameterError("annulus must satisfy 0 < lo < hi < inf")
        fraction = self.radial_fraction
        if isinstance(fraction, (bool, np.bool_)) or not 0.0 <= fraction <= 1.0:
            raise InvalidParameterError(f"radial_fraction must be a number in [0, 1], not {fraction!r}")


def _random_profile(rng, spec):
    lo, hi = spec.annulus
    chi = annulus_cutoff(lo, 2.0 * lo, 0.5 * hi, hi)
    mu_lo, mu_hi = np.log(2.0 * lo), np.log(0.5 * hi)
    n_bumps = int(rng.integers(1, spec.max_bumps + 1))
    mixture = None
    for _ in range(n_bumps):
        mu = rng.uniform(mu_lo, mu_hi)
        width = rng.uniform(0.15, 0.45)
        mag = rng.uniform(0.3, 1.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = mag * np.exp(1j * phase) if spec.complex_amplitudes and rng.random() < 0.5 else mag
        bump = log_gaussian_profile(amp, mu, width)
        mixture = bump if mixture is None else mixture + bump
    return (chi * mixture).with_support((lo, hi))


def _random_poly(rng, dim):
    exponents = [(0,) * dim]
    coeffs = [1.0 + 0.0j]
    n_terms = int(rng.integers(1, 3))
    for _ in range(n_terms):
        e = [0] * dim
        total = int(rng.integers(1, 3))
        for _ in range(total):
            e[int(rng.integers(0, dim))] += 1
        re, im = rng.normal(0.0, 0.3, size=2)
        exponents.append(tuple(e))
        coeffs.append(complex(re, im))
    return PolyFactor(tuple(exponents), tuple(coeffs))


def make_corpus(group, norm, spec=None):
    """Generate ``spec.count`` smooth fields over ``norm``'s unit annulus.

    Deterministic in all of ``(group, norm kind, spec)``; field ids embed
    the seed and index.
    """
    spec = spec or CorpusSpec()
    rng = np.random.default_rng(spec.seed)
    n_radial = round(spec.count * spec.radial_fraction)
    fields = []
    for i in range(spec.count):
        prof = _random_profile(rng, spec)
        if i < n_radial:
            fields.append(
                radial_field(prof, norm, field_id=f"bump-{spec.seed}-{i:03d}")
            )
        else:
            poly = _random_poly(rng, group.dim)
            fields.append(
                product_field(prof, poly, norm, field_id=f"poly-{spec.seed}-{i:03d}")
            )
    return fields
