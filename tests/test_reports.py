import copy
import math

import numpy as np
import pytest

from hgineq import (
    CorpusSpec,
    DegenerateConstantError,
    InvalidParameterError,
    PolyFactor,
    annulus_cutoff,
    ckn_report,
    combined_report,
    gaussian_profile,
    hardy_report,
    higher_order_pair_report,
    higher_order_report,
    l2_identity_report,
    l2_sharp_report,
    log_gaussian_profile,
    make_corpus,
    parse_group,
    product_field,
    radial_field,
    reports,
    sphere_measure,
    uncertainty_report,
)
from hgineq.profiles import RadialProfile

PI32 = math.pi**1.5


@pytest.fixture
def r3_gaussian(r3):
    group, norm = r3
    return radial_field(gaussian_profile(1.0), norm, support=(1e-6, 30.0), field_id="gauss")


def _bump(norm, lo=0.2, hi=5.0, field_id="bump"):
    prof = log_gaussian_profile(1.0, 0.0, 0.5) * annulus_cutoff(lo, 2 * lo, hi / 2, hi)
    return radial_field(prof, norm, support=(lo, hi), field_id=field_id)


def test_ckn_gaussian_closed_forms(r3, r3_gaussian, config):
    group, norm = r3
    rep = ckn_report(group, norm, r3_gaussian, 2.0, 0.0, 1.0, config=config)
    assert rep.satisfied and not rep.trivial
    assert rep.constant == 0.5
    # lhs = (1/2) * 2 pi^{3/2}; rhs = sqrt(3/2) * sqrt(2) * pi^{3/2}
    assert rep.lhs == pytest.approx(PI32, rel=1e-6)
    assert rep.rhs == pytest.approx(math.sqrt(3.0) * PI32, rel=1e-6)
    assert rep.ratio == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-6)
    assert rep.detail["gamma"] == 2.0
    assert rep.params == {"p": 2.0, "alpha": 0.0, "beta": 1.0}
    # numpy integer exponents are valid p: same report as the float
    rep_int = ckn_report(group, norm, r3_gaussian, np.int64(2), 0.0, 1.0, config=config)
    assert (rep_int.constant, rep_int.lhs, rep_int.rhs) == (rep.constant, rep.lhs, rep.rhs)


def test_ckn_trivial_when_gamma_hits_dimension(r3, r3_gaussian, config):
    group, norm = r3
    rep = ckn_report(group, norm, r3_gaussian, 2.0, 1.0, 1.0, config=config)
    assert rep.trivial and rep.constant == 0.0 and rep.lhs == 0.0
    assert rep.satisfied


def test_hardy_gaussian_ratio(r3, r3_gaussian, config):
    group, norm = r3
    rep = hardy_report(group, norm, r3_gaussian, 2.0, config=config)
    assert rep.satisfied
    assert rep.constant == 2.0
    # ||f/N||_2^2 / (2 ||Rf||_2)^2 = 2 pi^{3/2} / (4 * 1.5 pi^{3/2}) = 1/3
    assert (rep.lhs / rep.rhs) ** 2 == pytest.approx(1.0 / 3.0, rel=1e-5)


def test_uncertainty_up1p_gaussian(r3, r3_gaussian, config):
    group, norm = r3
    rep = uncertainty_report(group, norm, r3_gaussian, 2.0, config=config)
    assert rep.check_id == "up1p" and rep.satisfied
    assert rep.lhs == pytest.approx(PI32, rel=1e-6)  # ||f||_2^2
    assert rep.rhs == pytest.approx(3.0 * PI32, rel=1e-6)  # 2 * (3/2) pi^{3/2}


def test_uncertainty_hpw1_equality_case(r3, r3_gaussian, config):
    # p=2, alpha=1/2 makes exp(-r^2/2) the extremizer: both sides equal 2 pi
    group, norm = r3
    rep = uncertainty_report(group, norm, r3_gaussian, 2.0, variant="hpw1", alpha=0.5,
                             config=config)
    assert rep.check_id == "hpw1" and rep.satisfied
    assert rep.lhs == pytest.approx(2 * math.pi, rel=1e-6)
    assert rep.rhs == pytest.approx(2 * math.pi, rel=1e-6)
    assert rep.residual <= rep.margin


def test_uncertainty_hpw2_constant(heis, config):
    group, norm = heis
    f = _bump(norm)
    rep = uncertainty_report(group, norm, f, 2.0, variant="hpw2", config=config)
    assert rep.check_id == "hpw2" and rep.satisfied
    assert rep.constant == group.homogeneous_dimension / 2.0
    assert rep.detail["gamma"] == 0.0


def test_uncertainty_unknown_variant(r3, r3_gaussian, config):
    group, norm = r3
    with pytest.raises(InvalidParameterError):
        uncertainty_report(group, norm, r3_gaussian, 2.0, variant="hpw3", config=config)


def test_higher_order_iterated_bound(heis, config):
    group, norm = heis
    f = _bump(norm)
    rep = higher_order_report(group, norm, f, 2.0, 0.5, 2, config=config)
    assert rep.satisfied
    # A = (2/|4-3|) * (2/|4-2|) = 2 * 1 ... steps at theta=0.5 then -0.5
    assert rep.constant == pytest.approx(2.0 * (2.0 / 3.0))
    with pytest.raises(DegenerateConstantError):
        higher_order_report(group, norm, f, 2.0, 1.0, 1, config=config)
    with pytest.raises(InvalidParameterError):
        higher_order_report(group, norm, f, 2.0, 0.5, 0, config=config)


def test_pair_report_reduces_to_main_inequality(r3, r3_gaussian, config):
    group, norm = r3
    pair = higher_order_pair_report(group, norm, r3_gaussian, 2.0, 0.0, 1.0, k=0, m=0,
                                    config=config)
    base = ckn_report(group, norm, r3_gaussian, 2.0, 0.0, 1.0, config=config)
    assert pair.constant == 1.0
    assert pair.lhs == pytest.approx(base.lhs, rel=1e-13)
    assert pair.rhs == pytest.approx(base.rhs, rel=1e-13)


def test_pair_report_with_ladders(heis, config):
    group, norm = heis
    f = _bump(norm)
    rep = higher_order_pair_report(group, norm, f, 2.0, 0.25, 0.5, k=1, m=1, config=config)
    assert rep.satisfied
    from hgineq import ladder_constant_alpha, ladder_constant_beta

    q = group.homogeneous_dimension
    assert rep.constant == ladder_constant_alpha(q, 2.0, 0.25, 1) * ladder_constant_beta(
        q, 2.0, 0.5, 1
    )


def test_l2_identity_gaussian_decomposition(r3, r3_gaussian, config):
    group, norm = r3
    rep = l2_identity_report(group, norm, r3_gaussian, alpha=0.0, k=1, config=config)
    assert rep.kind == "identity" and rep.satisfied
    # ||Rf||^2 = (3/2) pi^{3/2} splits as (1/4)(2 pi^{3/2}) + pi^{3/2}
    assert rep.lhs == pytest.approx(1.5 * PI32, rel=1e-6)
    assert rep.rhs == pytest.approx(1.5 * PI32, rel=1e-6)
    base_val, _ = rep.detail["base_norm"]
    assert rep.constant * base_val**2 == pytest.approx(0.5 * PI32, rel=1e-6)
    rem_val, _ = rep.detail["remainders"][0]
    assert rem_val**2 == pytest.approx(PI32, rel=1e-6)


def test_l2_identity_holds_for_complex_fields(heis, config):
    group, norm = heis
    prof = log_gaussian_profile(1.0 + 0.7j, 0.1, 0.5) * annulus_cutoff(0.2, 0.4, 2.5, 5.0)
    f = radial_field(prof, norm, support=(0.2, 5.0), field_id="cplx")
    rep = l2_identity_report(group, norm, f, alpha=-0.5, k=2, config=config)
    assert rep.satisfied
    assert rep.residual <= rep.margin


def test_l2_identity_requires_order(r3, r3_gaussian, config):
    group, norm = r3
    with pytest.raises(InvalidParameterError):
        l2_identity_report(group, norm, r3_gaussian, k=0, config=config)
    with pytest.raises(InvalidParameterError):
        l2_identity_report(group, norm, r3_gaussian, k=1.0, config=config)


@pytest.mark.parametrize("report,kwargs", [
    (l2_identity_report, {"k": True}),
    (l2_sharp_report, {"k": True}),
    (higher_order_report, {"p": 2.0, "theta": 0.5, "k": True}),
    (higher_order_pair_report, {"p": 2.0, "alpha": 0.5, "beta": 1.0, "m": False}),
    (combined_report, {"alpha": 0.25, "beta": 0.5, "k": True}),
])
def test_a_bool_order_is_refused(r3, r3_gaussian, config, report, kwargs):
    group, norm = r3
    with pytest.raises(InvalidParameterError):
        report(group, norm, r3_gaussian, config=config, **kwargs)


@pytest.mark.parametrize("check,point", [
    ("l2-identity", {"alpha": 0.0, "k": 2}),
    ("pair", {"p": 2.0, "alpha": 0.25, "beta": 0.5, "k": 1, "m": 1}),
    ("ckn", {"p": 1.5, "alpha": 0.0, "beta": 1.0}),
])
def test_a_reports_detail_and_params_are_its_own(heis, config, check, point):
    """Reports at one point share their sides: writing into one report's
    ``detail`` or ``params`` leaves the next one's unchanged."""
    group, norm = heis
    f = _bump(norm)
    first = reports.evaluate(check, group, norm, f, point, config)
    want = copy.deepcopy((first.detail, first.params))
    for entries in (first.detail, first.params):
        for value in entries.values():
            if isinstance(value, list):
                value.append("written")
        entries["written"] = True
    again = reports.evaluate(check, group, norm, f, point, config)
    assert (again.detail, again.params) == want
    other = reports.evaluate(check, group, norm, _bump(norm, 0.3, 4.0, "other"), point, config)
    assert set(other.detail) == set(want[0]) and other.params == want[1]


def test_l2_sharp_bound(r3, r3_gaussian, config):
    group, norm = r3
    rep = l2_sharp_report(group, norm, r3_gaussian, alpha=0.0, k=1, config=config)
    assert rep.satisfied
    assert rep.constant == pytest.approx(2.0)  # 1/|(Q-2)/2| at Q=3
    group2 = parse_group("r:2")
    from hgineq import default_norm

    norm2 = default_norm(group2)
    f2 = _bump(norm2)
    with pytest.raises(InvalidParameterError):
        l2_sharp_report(group2, norm2, f2, config=config)


def test_combined_variants(heis, config):
    group, norm = heis
    f = _bump(norm)
    first = combined_report(group, norm, f, 0.25, 0.5, k=2, variant="first", config=config)
    high = combined_report(group, norm, f, 0.25, 0.5, k=2, variant="high", config=config)
    assert first.check_id == "combined-first" and first.satisfied
    assert high.check_id == "combined-high" and high.satisfied
    from hgineq import combined_first_constant, combined_high_constant

    q = group.homogeneous_dimension
    assert first.constant == combined_first_constant(q, 0.5, 2)
    assert high.constant == combined_high_constant(q, 0.25, 2)
    with pytest.raises(InvalidParameterError):
        combined_report(group, norm, f, 0.25, 0.5, variant="middle", config=config)


def test_report_fields_are_builtin_types(r3, r3_gaussian, config):
    group, norm = r3
    rep = ckn_report(group, norm, r3_gaussian, 2.0, 0.0, 1.0, config=config)
    assert type(rep.lhs) is float and type(rep.rhs) is float
    assert type(rep.satisfied) is bool and type(rep.trivial) is bool
    assert rep.config_digest == config.digest()


def test_reports_on_product_fields(heis, config):
    group, norm = heis
    q = PolyFactor(exponents=((1, 0, 0), (0, 0, 1)), coeffs=(1.0, 0.5))
    prof = log_gaussian_profile(1.0, 0.0, 0.5) * annulus_cutoff(0.3, 0.6, 2.0, 4.0)
    f = product_field(prof, q, norm, support=(0.3, 4.0), field_id="pq")
    rep = ckn_report(group, norm, f, 2.0, 0.0, 1.0, config=config)
    assert rep.satisfied
    assert 0.0 < rep.ratio < 1.0


def test_margin_propagation_first_order_and_zero_rule():
    # one term 3 * a**2 * b**0.5: first-order error 3 (2 a b^0.5 da + 0.5 a^2 b^-0.5 db)
    value, error = reports._side([(3.0, [(2.0, 1e-3, 2.0), (4.0, 2e-3, 0.5)])])
    assert value == 3.0 * 4.0 * 2.0
    assert error == pytest.approx(3.0 * (2 * 2.0 * 2.0 * 1e-3 + 0.5 * 4.0 * 0.5 * 2e-3))
    # a factor whose value is 0 contributes err**e, times the other factors
    value, error = reports._side([(3.0, [(0.0, 1e-3, 2.0), (4.0, 2e-3, 0.5)])])
    assert value == 0.0
    assert error == pytest.approx(3.0 * 1e-3**2 * 2.0)
    # a sum of terms adds the terms' errors
    value, error = reports._side([(3.0, [(2.0, 1e-3, 2.0), (4.0, 2e-3, 0.5)]),
                                  (1.0, [(5.0, 0.25, 1.0)])])
    assert value == 24.0 + 5.0
    assert error == pytest.approx(3.0 * (8e-3 + 2e-3) + 0.25)


def test_report_builds_each_node_sets_stack_once(r3, config, monkeypatch):
    group, norm = r3
    spec = CorpusSpec(count=1, seed=11, radial_fraction=1.0)
    f = make_corpus(group, norm, spec)[0]
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
    ckn_report(group, norm, f, 2.0, 0.0, 1.0, config=config)
    # the ||Rf|| norm first, then ||f|| twice from the same stack, one on the
    # paired full and coarse node set; measured in table order this was
    # [0, 0, 1, 1], and on separate node sets [1, 1]
    assert [order for _, order in calls] == [1]
