import math

import numpy as np
import pytest

from hgineq import (CorpusSpec, InvalidParameterError, QuadratureConfig, default_norm, make_corpus,
                    parse_group)


def test_corpus_is_deterministic(heis):
    group, norm = heis
    spec = CorpusSpec(count=12, seed=7)
    a = make_corpus(group, norm, spec)
    b = make_corpus(group, norm, spec)
    rng = np.random.default_rng(0)
    x = rng.uniform(-3, 3, size=(200, 3))
    for fa, fb in zip(a, b):
        assert fa.field_id == fb.field_id
        va, vb = fa.values(x), fb.values(x)
        assert np.array_equal(va, vb)


def test_corpus_split_and_ids(r3):
    group, norm = r3
    spec = CorpusSpec(count=10, seed=3, radial_fraction=0.7)
    fields = make_corpus(group, norm, spec)
    assert len(fields) == 10
    radial = [f for f in fields if f.is_quasi_radial]
    poly = [f for f in fields if not f.is_quasi_radial]
    assert len(radial) == 7 and len(poly) == 3
    assert all(f.field_id.startswith("bump-3-") for f in radial)
    assert all(f.field_id.startswith("poly-3-") for f in poly)


def test_corpus_supports_and_decay(aniso12):
    group, norm = aniso12
    spec = CorpusSpec(count=8, seed=1, annulus=(0.3, 4.0))
    for f in make_corpus(group, norm, spec):
        assert f.support == (0.3, 4.0)
        # smooth decay to zero at both carrier ends: values and first
        # derivatives vanish where the cutoff plateaus end
        edges = np.array([0.3, 4.0])
        stack = f.profile.derivatives(edges, 2) if f.is_quasi_radial else None
        if stack is not None:
            assert np.all(stack == 0.0)


def test_corpus_complex_amplitudes_present(r3):
    group, norm = r3
    fields = make_corpus(group, norm, CorpusSpec(count=30, seed=2))
    rng = np.random.default_rng(5)
    x = rng.uniform(-2, 2, size=(400, 3))
    has_complex = any(
        np.iscomplexobj(f.values(x)) and np.any(np.abs(f.values(x).imag) > 0)
        for f in fields
    )
    assert has_complex
    # the flag governs bump amplitudes; polynomial factors stay complex
    real_only = make_corpus(
        group, norm, CorpusSpec(count=10, seed=2, radial_fraction=1.0, complex_amplitudes=False)
    )
    assert all(np.all(np.asarray(f.values(x)).imag == 0) for f in real_only)


def test_corpus_poly_matches_dimension():
    group = parse_group("aniso:1,2")
    norm = default_norm(group)
    fields = make_corpus(group, norm, CorpusSpec(count=10, seed=4, radial_fraction=0.0))
    for f in fields:
        assert all(len(e) == 2 for e in f.poly.exponents)


def test_corpus_spec_validation():
    with pytest.raises(InvalidParameterError):
        CorpusSpec(count=0)
    with pytest.raises(InvalidParameterError):
        CorpusSpec(annulus=(2.0, 1.0))
    with pytest.raises(InvalidParameterError):
        CorpusSpec(radial_fraction=1.5)
    with pytest.raises(InvalidParameterError):
        CorpusSpec(max_bumps=0)
    # numpy's seeding refuses these with a ValueError
    for seed in (-1, 1.5, "3"):
        with pytest.raises(InvalidParameterError):
            CorpusSpec(seed=seed)
    assert CorpusSpec(seed=np.int64(2)).seed == 2


@pytest.mark.parametrize("bad", [
    {"count": 2.5}, {"count": math.inf}, {"count": True}, {"seed": True}, {"max_bumps": 2.5},
    {"max_bumps": True}, {"annulus": (0.2, math.inf)}, {"annulus": (0.2, math.nan)}])
def test_corpus_spec_refuses_non_integer_counts_and_an_unbounded_annulus(bad):
    with pytest.raises(InvalidParameterError):
        CorpusSpec(**bad)


@pytest.mark.parametrize("make, name, ok", [
    (QuadratureConfig, "radial_order", np.int64(2)),
    (QuadratureConfig, "radial_panels", np.int32(1)),
    (QuadratureConfig, "box_points", np.int64(2)),
    (CorpusSpec, "radial_fraction", np.int64(1))])
@pytest.mark.parametrize("value", [True, False, np.True_])
def test_configs_refuse_a_bool_naming_the_field(make, name, ok, value):
    """A bool is an int to Python: before, ``radial_panels=True`` gave one
    panel and ``radial_fraction=True`` was kept as ``True``."""
    with pytest.raises(InvalidParameterError, match=name):
        make(**{name: value})
    assert getattr(make(**{name: ok}), name) == ok  # numpy integers stay accepted


def test_corpus_seed_changes_fields(r3):
    group, norm = r3
    a = make_corpus(group, norm, CorpusSpec(count=5, seed=0))
    b = make_corpus(group, norm, CorpusSpec(count=5, seed=1))
    rng = np.random.default_rng(9)
    x = rng.uniform(-2, 2, size=(50, 3))
    assert not all(np.array_equal(fa.values(x), fb.values(x)) for fa, fb in zip(a, b))
