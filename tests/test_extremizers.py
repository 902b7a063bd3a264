import math

import numpy as np
import pytest

from hgineq import (
    DEFAULT_SCHEDULE,
    DegenerateConstantError,
    ExtremizerFamily,
    InvalidParameterError,
    OutsidePureRegionError,
    RadialProfile,
    attained_quotient,
    extremizer_field,
    extremizer_profile,
    hoelder_residual,
    sharpness_scan,
    sphere_measure,
)


def test_family_branch_selection():
    # lam = alpha - beta/(p-1) + 1
    fam = ExtremizerFamily(p=2.0, alpha=0.0, beta=1.0, eps=1e-2, r_out=1e2)
    assert fam.branch == "power" and fam.lam == 0.0 and fam.gamma == 2.0
    fam = ExtremizerFamily(p=2.0, alpha=0.0, beta=0.0, eps=1e-2, r_out=1e2)
    assert fam.branch == "exponential" and fam.lam == 1.0
    with pytest.raises(InvalidParameterError):
        ExtremizerFamily(p=2.0, alpha=0.0, beta=1.0, eps=2.0, r_out=1.0)
    with pytest.raises(InvalidParameterError):
        ExtremizerFamily(p=1.0, alpha=0.0, beta=1.0, eps=0.1, r_out=1.0)


def test_profile_solves_extremal_ode(r3):
    # g' = -c_s r^(lam-1) g on the carrier, both branches
    group, norm = r3
    for alpha, beta in [(0.0, 1.0), (0.3, 0.2), (-0.4, 0.8)]:
        fam = ExtremizerFamily(p=2.0, alpha=alpha, beta=beta, eps=1e-2, r_out=1e2)
        prof = extremizer_profile(group, fam)
        c_s = fam.signed_constant(group.homogeneous_dimension)
        r = np.geomspace(fam.eps * 1.01, fam.r_out * 0.99, 64)
        stack = prof.derivatives(r, 1)
        lhs = stack[1]
        rhs = -c_s * r ** (fam.lam - 1.0) * stack[0]
        assert np.allclose(lhs, rhs, rtol=1e-10, atol=1e-300)


def test_profile_is_normalized_in_range(r3):
    group, norm = r3
    fam = ExtremizerFamily(p=2.0, alpha=0.0, beta=1.0, eps=1e-8, r_out=1e8)
    prof = extremizer_profile(group, fam)
    r = np.geomspace(fam.eps, fam.r_out, 200)
    v = prof(r)
    assert np.all(np.isfinite(v))
    assert np.max(np.abs(v)) < 1e150


def test_degenerate_family_refused(r3):
    group, norm = r3
    fam = ExtremizerFamily(p=2.0, alpha=1.0, beta=1.0, eps=1e-2, r_out=1e2)  # gamma = 3 = Q
    with pytest.raises(DegenerateConstantError):
        extremizer_profile(group, fam)
    with pytest.raises(DegenerateConstantError):
        sharpness_scan(group, norm, 2.0, 1.0, 1.0)


def test_hoelder_residual_vanishes_on_carrier(r3):
    group, norm = r3
    fam = ExtremizerFamily(p=2.0, alpha=0.0, beta=1.0, eps=1e-2, r_out=1e2)
    x = np.array([[1.0, 0.0, 0.0], [0.0, 0.05, 0.0], [30.0, 0.0, 40.0]])
    res = hoelder_residual(group, norm, fam, x)
    assert np.all(res < 1e-12)
    # inside the truncation band the cutoff breaks proportionality
    band = np.array([[0.007, 0.0, 0.0]])
    assert np.all(hoelder_residual(group, norm, fam, band) > 1e-3)
    with pytest.raises(OutsidePureRegionError):
        hoelder_residual(group, norm, fam, np.array([[300.0, 0.0, 0.0]]))


def test_attained_quotient_above_target(r3, config):
    group, norm = r3
    fam = ExtremizerFamily(p=2.0, alpha=0.0, beta=1.0, eps=1e-2, r_out=1e2)
    value, err = attained_quotient(group, norm, fam, config)
    assert value == pytest.approx(0.8675863275547874, rel=1e-9)
    assert value > 0.5 and err < 1e-4 * value


def test_attained_quotient_builds_each_node_sets_stack_once(r3, config, monkeypatch):
    group, norm = r3
    fam = ExtremizerFamily(p=2.0, alpha=0.0, beta=1.0, eps=1e-2, r_out=1e2)
    sphere_measure(group, norm)  # sigma's box integrand evaluates profiles too
    orig = RadialProfile.derivatives
    calls, depth = [], []

    def counting(self, r, order):  # outermost calls: a profile's factors are profiles too
        if not depth:
            calls.append((self, order))
        depth.append(self)
        try:
            return orig(self, r, order)
        finally:
            depth.pop()

    monkeypatch.setattr(RadialProfile, "derivatives", counting)
    attained_quotient(group, norm, fam, config)
    # one stack on the paired full and coarse node set, to the order Rf needs
    assert [order for _, order in calls] == [1]
    assert calls[0][0].root() == (calls[0][0], 0)


def test_power_branch_gap_shrinks_logarithmically(r3, config):
    group, norm = r3
    scan = sharpness_scan(group, norm, 2.0, 0.0, 1.0, config=config)
    gaps = [e["gap"] for e in scan.entries if e.get("attained") is not None]
    assert all(g > 0 for g in gaps)
    assert gaps == sorted(gaps, reverse=True)
    # widening the carrier by 10^16 decades cuts the gap accordingly
    assert scan.best_gap <= 0.05
    assert scan.best["eps"] == 1e-56
    assert scan.best_gap == pytest.approx(0.03733516430292494, rel=1e-6)


def test_exponential_branch_converges_fast(r3, config):
    group, norm = r3
    scan = sharpness_scan(group, norm, 2.0, 0.0, 0.0, config=config)
    assert scan.target == pytest.approx(1.0)
    done = [e for e in scan.entries if e.get("attained") is not None]
    # Gaussian-type decay: already at [1e-4, 1e4] the quotient is exact
    assert scan.best_gap <= 1e-7
    assert done[-1]["attained"] == pytest.approx(1.0, abs=1e-9)


def test_overflowing_entries_are_skipped_not_clipped(r3, config):
    # lam = -1.5 with c_s > 0: exp(+(c_s/|lam|) r^-|lam|) blows up at eps -> 0
    group, norm = r3
    scan = sharpness_scan(group, norm, 2.0, -0.5, 2.0, config=config)
    skipped = [e for e in scan.entries if e.get("skipped")]
    done = [e for e in scan.entries if e.get("attained") is not None]
    assert skipped and done
    assert all("double range" in e["skipped"] for e in skipped)
    # the shallow entries still beat the target from above
    assert scan.best_gap > 0
    assert scan.to_dict()["best_attained"] == scan.best["attained"]


def test_first_entry_margin_is_finite_where_the_norms_are_huge(r3):
    # a shifted cold-start scan point: ||.||_p^p of the first entry's field
    # is about 1e205, and its margin came out as inf
    group, norm = r3
    entry = sharpness_scan(group, norm, 1.5, -0.488, 1.506).entries[0]
    assert entry["eps"] == 0.1
    assert math.isfinite(entry["margin"]) and entry["margin"] > 0.0


def test_schedule_validation(r3, config):
    group, norm = r3
    with pytest.raises(InvalidParameterError):
        sharpness_scan(group, norm, 2.0, 0.0, 1.0, schedule=[], config=config)
    with pytest.raises(InvalidParameterError):
        sharpness_scan(
            group, norm, 2.0, 0.0, 1.0,
            schedule=[(1e-2, 1e2), (1e-1, 1e3)], config=config,
        )


def test_default_schedule_shape():
    eps = [e for e, _ in DEFAULT_SCHEDULE]
    outs = [r for _, r in DEFAULT_SCHEDULE]
    assert eps == sorted(eps, reverse=True)
    assert outs == sorted(outs)
    assert eps[-1] == 1e-56 and outs[-1] == 1e56


def test_extremizer_field_round_trip(heis, config):
    group, norm = heis
    fam = ExtremizerFamily(p=2.0, alpha=0.0, beta=1.0, eps=1e-1, r_out=1e1)
    f = extremizer_field(group, norm, fam)
    assert f.is_quasi_radial
    lo, hi = f.support
    assert lo == pytest.approx(0.05) and hi == pytest.approx(20.0)
    assert "extremal" in f.field_id
