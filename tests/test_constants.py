import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgineq import (
    DegenerateConstantError,
    InvalidParameterError,
    ckn_constant,
    combined_first_constant,
    combined_high_constant,
    constant_table,
    hardy_step_constant,
    iterated_hardy_constant,
    l2_iterated_constant,
    ladder_constant_alpha,
    ladder_constant_beta,
    uncertainty_constant,
    validate_p,
)


def test_validate_p():
    validate_p(1.5)
    validate_p(np.int64(2))  # any real type, numpy scalars included
    for bad in (1.0, 0.5, -2.0, math.inf, math.nan, "2"):
        with pytest.raises(InvalidParameterError):
            validate_p(bad)
    with pytest.raises(InvalidParameterError):
        validate_p(3.0, upper=3.0)


def test_first_order_values():
    assert ckn_constant(3.0, 2.0, 2.0) == 0.5
    assert ckn_constant(4.0, 2.0, 2.0) == 1.0
    assert ckn_constant(3.0, 3.0, 2.0) == 0.0  # gamma = Q is allowed
    assert hardy_step_constant(3.0, 2.0, 0.0) == 2.0
    assert hardy_step_constant(5.0, 2.0, 1.0) == 2.0
    assert uncertainty_constant(3.0, 2.0) == 2.0
    with pytest.raises(InvalidParameterError):
        uncertainty_constant(3.0, 3.0)  # needs p < Q
    with pytest.raises(DegenerateConstantError):
        hardy_step_constant(4.0, 2.0, 1.0)  # Q = p(alpha+1)


def test_iterated_hardy_reference_value():
    # Q=5, p=2, theta=1, k=2: steps are 2/|5-4| * 2/|5-2| = 4/3
    assert iterated_hardy_constant(5.0, 2.0, 1.0, 2) == pytest.approx(4.0 / 3.0)


@settings(max_examples=100, deadline=None)
@given(
    q=st.floats(2.0, 12.0),
    p=st.floats(1.1, 5.0),
    theta=st.floats(-2.0, 3.0),
    k=st.integers(1, 5),
)
def test_iterated_hardy_is_exact_step_product(q, p, theta, k):
    try:
        expected = 1.0
        for j in range(k):
            expected *= hardy_step_constant(q, p, theta - j)
    except DegenerateConstantError:
        with pytest.raises(DegenerateConstantError):
            iterated_hardy_constant(q, p, theta, k)
        return
    # bit-identical, not merely close: both sides multiply the same floats
    assert iterated_hardy_constant(q, p, theta, k) == expected


def test_degenerate_factor_index_reporting():
    # Q=6, p=2, theta - j = 2 at j = 1 when theta = 3: 6 = 2*(3+1-1)... check
    with pytest.raises(DegenerateConstantError) as exc:
        iterated_hardy_constant(6.0, 2.0, 3.0, 3)
    assert exc.value.factor_index == 1
    with pytest.raises(DegenerateConstantError) as exc:
        ladder_constant_alpha(4.0, 2.0, 2.0, 3)
    assert exc.value.factor_index == 0
    with pytest.raises(DegenerateConstantError) as exc:
        l2_iterated_constant(4.0, 0.0, 3)
    assert exc.value.factor_index == 1  # (Q-2)/2 = 1 = alpha + 1


def test_ladder_constants_match_manual_products():
    q, p, alpha, beta = 7.0, 2.5, 0.4, 1.2
    m, k = 3, 2
    manual_a = 1.0
    for j in range(m):
        manual_a *= p / abs(q - p * (alpha - j))
    assert ladder_constant_alpha(q, p, alpha, m) == manual_a
    manual_b = 1.0
    for j in range(k):
        manual_b *= p / abs(q - p * (beta / (p - 1.0) - j))
    assert ladder_constant_beta(q, p, beta, k) == manual_b ** (p - 1.0)
    assert ladder_constant_alpha(q, p, alpha, 0) == 1.0
    assert ladder_constant_beta(q, p, beta, 0) == 1.0


def test_l2_and_combined_products():
    q, alpha, beta, k = 5.0, 0.25, 0.75, 3
    manual = 1.0
    for j in range(k):
        manual /= abs(0.5 * (q - 2.0) - (alpha + j))
    assert l2_iterated_constant(q, alpha, k) == manual
    manual = 1.0
    for j in range(k):
        manual /= abs(0.5 * (q - 2.0) - (beta - k + j))
    assert combined_first_constant(q, beta, k) == manual
    manual = 1.0
    for j in range(k):
        manual /= abs(0.5 * (q - 2.0) - (alpha - k + j))
    assert combined_high_constant(q, alpha, k) == manual


def test_order_validation():
    with pytest.raises(InvalidParameterError):
        iterated_hardy_constant(5.0, 2.0, 1.0, 0)
    with pytest.raises(InvalidParameterError):
        ladder_constant_alpha(5.0, 2.0, 1.0, -1)
    with pytest.raises(InvalidParameterError):
        l2_iterated_constant(5.0, 1.0, 0)


def test_constant_table_values_and_degeneracies():
    table = constant_table(4.0, 2.0, alpha=1.0, beta=0.5, theta=1.0, k=1, m=1)
    assert table["ckn"]["value"] == pytest.approx(abs(4.0 - 2.5) / 2.0)
    # Q = p(alpha+1) at alpha=1: hardy step degenerates, with the factor named
    assert table["hardy_step"]["degenerate"] is True
    assert table["hardy_step"]["factor_index"] == 0
    assert table["uncertainty"]["value"] == pytest.approx(1.0)
    assert table["iterated_hardy"]["degenerate"] is True
    assert table["ladder_alpha"]["value"] == pytest.approx(1.0)  # |4-2|=2, p/2=1
    # (Q-2)/2 = 1 = alpha: the L2 product degenerates too
    assert table["l2_iterated"]["degenerate"] is True
    assert table["combined_first"]["value"] == pytest.approx(1.0 / 1.5)
    assert table["combined_high"]["value"] == pytest.approx(1.0)
    # minimal call computes only what the parameters allow
    small = constant_table(3.0, 2.0)
    assert "ckn" not in small and "uncertainty" in small
