"""Acceptance gate: ten numbered criteria, one test (= one pass/fail line) each.

Each test pins the tolerance and runtime budget it must meet; failures
here mean the package no longer reproduces its contracted numbers, not
that a unit regressed somewhere.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from hgineq import (
    CorpusSpec,
    DegenerateConstantError,
    InvalidParameterError,
    QuadratureConfig,
    ckn_report,
    ckn_constant,
    default_norm,
    dilate,
    dilate_field,
    gaussian_profile,
    hardy_report,
    hardy_step_constant,
    higher_order_pair_report,
    homogeneity_deviation,
    iterated_hardy_constant,
    l2_identity_report,
    make_corpus,
    nth_radial_derivative,
    parse_group,
    radial_field,
    sharpness_scan,
    sphere_measure,
    uncertainty_report,
    weighted_lp_norm,
)
from conftest import CATALOG, catalog_pairs, sample_points

PI32 = math.pi**1.5
GROUPS = ("r:3", "heis1", "aniso:1,2")


def _group_norm(name):
    g = parse_group(name)
    return g, default_norm(g)


def test_criterion_01_homogeneity_all_catalog_pairs():
    t0 = time.perf_counter()
    for group, norm in catalog_pairs():
        dev = homogeneity_deviation(norm, samples=1000, seed=101)
        assert dev <= 1e-12, f"{group.name}/{norm.kind}: deviation {dev:.3e}"
    assert len(CATALOG) == 11
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_sphere_measure_euclidean(config):
    for name, expected in (("r:2", 2 * math.pi), ("r:3", 4 * math.pi)):
        group, norm = _group_norm(name)
        t0 = time.perf_counter()
        sm = sphere_measure(group, norm, config=config)
        elapsed = time.perf_counter() - t0
        assert abs(sm.value - expected) / expected <= 1e-3, name
        assert elapsed < 10.0, f"{name}: {elapsed:.1f}s"


def test_criterion_03_truncated_gaussian_closed_forms(config):
    group, norm = _group_norm("r:3")
    f = radial_field(gaussian_profile(1.0), norm, support=(1e-6, 30.0), field_id="gauss")
    rf = nth_radial_derivative(group, norm, f, 1)
    t0 = time.perf_counter()
    cases = (
        (f, 1.0, 2 * PI32),     # || f / |x| ||_2^2
        (rf, 0.0, 1.5 * PI32),  # || R f ||_2^2
        (f, -1.0, 1.5 * PI32),  # || |x| f ||_2^2
    )
    for field, weight, expected in cases:
        val, _ = weighted_lp_norm(group, norm, field, weight, 2.0, config=config)
        assert abs(val**2 - expected) / expected <= 1e-6
    assert time.perf_counter() - t0 < 5.0


def test_criterion_04_no_false_violations_full_corpus(config):
    pairs = [(0.0, 1.0), (0.5, 0.5), (-0.5, 1.0), (1.0, 0.25), (0.25, -0.25)]
    ps = (1.5, 2.0, 3.0)
    alphas = sorted({a for a, _ in pairs})
    t0 = time.perf_counter()
    violations, n_reports, n_skipped = [], 0, 0
    for name in GROUPS:
        group, norm = _group_norm(name)
        fields = make_corpus(group, norm, CorpusSpec(count=50, seed=0))
        assert len(fields) == 50
        for f in fields:
            jobs = []
            for p in ps:
                jobs += [lambda p=p, a=a, b=b: ckn_report(group, norm, f, p, a, b, config=config)
                         for a, b in pairs]
                jobs += [lambda p=p, a=a: hardy_report(group, norm, f, p, a, config=config)
                         for a in alphas]
                jobs += [lambda p=p, a=a: uncertainty_report(group, norm, f, p, variant="hpw1",
                                                             alpha=a, config=config)
                         for a in alphas]
                jobs += [lambda p=p, v=v: uncertainty_report(group, norm, f, p, variant=v,
                                                             config=config)
                         for v in ("up1p", "hpw2")]
            for job in jobs:
                try:
                    rep = job()
                except (DegenerateConstantError, InvalidParameterError):
                    n_skipped += 1
                    continue
                n_reports += 1
                if not rep.satisfied:
                    violations.append((name, rep.check_id, rep.field_id, rep.params))
    elapsed = time.perf_counter() - t0
    assert violations == []
    assert n_reports > 7000 and n_skipped < 0.1 * n_reports
    assert elapsed < 300.0, f"{elapsed:.0f}s"


def test_criterion_05_l2_identity_residuals():
    # the identity is exact; the quadrature just has to resolve the
    # sharpest bump x k=3 integrands, hence the finer radial rule
    cfg = QuadratureConfig(radial_order=64, radial_panels=12)
    t0 = time.perf_counter()
    for name in GROUPS:
        group, norm = _group_norm(name)
        fields = make_corpus(group, norm, CorpusSpec(count=10, seed=0, radial_fraction=1.0))
        for k in (1, 2, 3):
            for alpha in (-1.0, 0.0, 1.0):
                for f in fields:
                    rep = l2_identity_report(group, norm, f, alpha=alpha, k=k,
                                             config=cfg, mode="analytic")
                    rel = abs(rep.lhs - rep.rhs) / max(abs(rep.lhs), abs(rep.rhs))
                    assert rel <= 1e-6, (name, k, alpha, f.field_id, rel)
    # closed-form split of the R^3 Gaussian case: (1/4)(2 pi^{3/2}) + pi^{3/2}
    group, norm = _group_norm("r:3")
    f = radial_field(gaussian_profile(1.0), norm, support=(1e-6, 30.0), field_id="gauss")
    rep = l2_identity_report(group, norm, f, alpha=0.0, k=1, config=cfg)
    assert rep.lhs == pytest.approx(1.5 * PI32, rel=1e-6)
    base_val, _ = rep.detail["base_norm"]
    assert rep.constant * base_val**2 == pytest.approx(0.5 * PI32, rel=1e-6)
    assert rep.detail["remainders"][0][0] ** 2 == pytest.approx(PI32, rel=1e-6)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_06_sharpness_at_default_schedule(config):
    for name, nkind, target in (("r:3", "euclidean", 0.5), ("heis1", "koranyi", 1.0)):
        group, norm = _group_norm(name)
        assert norm.kind == nkind
        t0 = time.perf_counter()
        scan = sharpness_scan(group, norm, 2.0, 0.0, 1.0, config=config)
        elapsed = time.perf_counter() - t0
        assert scan.target == target
        assert 0.0 <= scan.best_gap <= 0.05, f"{name}: gap {scan.best_gap:.4f}"
        assert elapsed < 60.0, f"{name}: {elapsed:.1f}s"


def test_criterion_07_analytic_vs_orbit_fd(config):
    rng = np.random.default_rng(77)
    for name in GROUPS:
        group, norm = _group_norm(name)
        fields = make_corpus(group, norm, CorpusSpec(count=20, seed=5))
        assert len(fields) == 20
        x = sample_points(group, rng, 40, r_lo=0.5, r_hi=2.0, norm=norm)
        for f in fields:
            exact = nth_radial_derivative(group, norm, f, 1, mode="analytic").values(x)
            fd = nth_radial_derivative(group, norm, f, 1, mode="orbit_fd").values(x)
            scale = max(np.max(np.abs(exact)), 1e-12)
            assert np.max(np.abs(exact - fd)) / scale <= 1e-6, (name, f.field_id)
        # R is homogeneous of order -1: R(f o D_lam) = lam (R f) o D_lam
        for f in fields[:5]:
            rf = nth_radial_derivative(group, norm, f, 1)
            for lam in (0.5, 2.0):
                lhs = nth_radial_derivative(group, norm, dilate_field(group, f, lam), 1).values(x)
                rhs = lam * rf.values(dilate(group, lam, x))
                scale = max(np.max(np.abs(rhs)), 1e-12)
                assert np.max(np.abs(lhs - rhs)) / scale <= 1e-6, (name, f.field_id, lam)


def test_criterion_08_constant_arithmetic(r3, config):
    rng = np.random.default_rng(8)
    checked = 0
    while checked < 100:
        q = rng.uniform(2.5, 10.0)
        p = rng.uniform(1.1, 4.0)
        theta = rng.uniform(-2.0, 3.0)
        k = int(rng.integers(1, 5))
        try:
            product = 1.0
            for j in range(k):
                product *= hardy_step_constant(q, p, theta - j)
        except DegenerateConstantError:
            continue
        assert iterated_hardy_constant(q, p, theta, k) == product  # exact, not approx
        checked += 1
    with pytest.raises(DegenerateConstantError):
        iterated_hardy_constant(4.0, 2.0, 1.0, 1)
    group, norm = r3
    f = radial_field(gaussian_profile(1.0), norm, support=(1e-6, 30.0), field_id="gauss")
    pair = higher_order_pair_report(group, norm, f, 2.0, 0.0, 1.0, k=0, m=0, config=config)
    base = ckn_report(group, norm, f, 2.0, 0.0, 1.0, config=config)
    assert pair.constant == 1.0
    assert pair.lhs == pytest.approx(base.lhs, rel=1e-12)
    assert pair.rhs == pytest.approx(base.rhs, rel=1e-12)


def test_criterion_09_ratio_dilation_invariance(heis, config):
    group, norm = heis
    fields = make_corpus(group, norm, CorpusSpec(count=10, seed=9))
    for f in fields:
        base = ckn_report(group, norm, f, 2.0, 0.0, 0.5, config=config).ratio
        for lam in (0.5, 2.0):
            scaled = ckn_report(group, norm, dilate_field(group, f, lam), 2.0, 0.0, 0.5,
                                config=config).ratio
            assert abs(scaled - base) / base <= 1e-6, (f.field_id, lam)


def test_criterion_10_verify_byte_determinism(tmp_path):
    args = [
        sys.executable, "-m", "hgineq", "verify", "--group", "r:2", "--norm", "euclid",
        "--check", "ckn", "--p", "2", "--alpha", "0", "--beta", "0.5",
        "--count", "6", "--seed", "3",
    ]
    # the child imports the package from this checkout's src/ as the tests do
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    outs = []
    for i in (1, 2):
        path = tmp_path / f"run{i}.json"
        proc = subprocess.run(args + ["--out", str(path)], capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    doc = json.loads(outs[0])
    assert doc["schema"] == 1 and "generated_at" not in doc
