import numpy as np
import pytest

from hgineq import (
    QuadratureConfig,
    clear_caches,
    default_norm,
    make_norm,
    parse_group,
)

# every (group, norm) pair the package supports out of the box
CATALOG = [
    ("r:2", "euclid"),
    ("r:2", "aniso"),
    ("r:2", "max"),
    ("r:3", "euclid"),
    ("r:3", "aniso"),
    ("r:3", "max"),
    ("aniso:1,2", "aniso"),
    ("aniso:1,2", "max"),
    ("heis1", "koranyi"),
    ("heis1", "aniso"),
    ("heis1", "max"),
]


def catalog_pairs():
    for gname, nname in CATALOG:
        group = parse_group(gname)
        yield group, make_norm(group, nname)


@pytest.fixture(scope="session")
def config():
    return QuadratureConfig()


@pytest.fixture(scope="session")
def r3():
    group = parse_group("r:3")
    return group, default_norm(group)


@pytest.fixture(scope="session")
def heis():
    group = parse_group("heis1")
    return group, default_norm(group)


@pytest.fixture(scope="session")
def aniso12():
    group = parse_group("aniso:1,2")
    return group, default_norm(group)


@pytest.fixture(autouse=True, scope="session")
def _fresh_cache():
    clear_caches()
    yield


def sample_points(group, rng, count, r_lo=0.5, r_hi=2.0, norm=None):
    """Points with quasi-norm in [r_lo, r_hi], by rejection from a box."""
    norm = norm or default_norm(group)
    out = []
    while len(out) < count:
        x = rng.uniform(-2.0, 2.0, size=(4 * count, group.dim))
        r = np.asarray(norm(x))
        x = x[(r >= r_lo) & (r <= r_hi)]
        out.extend(x[: count - len(out)])
    return np.asarray(out)
