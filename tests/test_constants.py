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


# The reference: each product constant as a loop of its own, with its own
# zero check and raise.  The constants above must match these bit for bit.


def _ref_hardy_step(q_dim, p, alpha):
    validate_p(p)
    d = q_dim - p * (alpha + 1.0)
    if d == 0.0:
        raise DegenerateConstantError(
            f"Q - p(alpha+1) vanishes at alpha={alpha:g}", factor_index=0
        )
    return p / abs(d)


def _ref_iterated_hardy(q_dim, p, theta, k):
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    out = 1.0
    for j in range(k):
        try:
            out *= _ref_hardy_step(q_dim, p, theta - j)
        except DegenerateConstantError:
            raise DegenerateConstantError(
                f"factor j={j} vanishes: Q = p(theta+1-j) at theta={theta:g}",
                factor_index=j,
            ) from None
    return out


def _ref_ladder_alpha(q_dim, p, alpha, m):
    validate_p(p)
    if m < 0:
        raise InvalidParameterError("m must be >= 0")
    out = 1.0
    for j in range(m):
        d = q_dim - p * (alpha - j)
        if d == 0.0:
            raise DegenerateConstantError(
                f"factor j={j} vanishes: Q = p(alpha - j)", factor_index=j
            )
        out *= p / abs(d)
    return out


def _ref_ladder_beta(q_dim, p, beta, k):
    validate_p(p)
    if k < 0:
        raise InvalidParameterError("k must be >= 0")
    base = 1.0
    for j in range(k):
        d = q_dim - p * (beta / (p - 1.0) - j)
        if d == 0.0:
            raise DegenerateConstantError(
                f"factor j={j} vanishes: Q = p(beta/(p-1) - j)", factor_index=j
            )
        base *= p / abs(d)
    return base ** (p - 1.0)


def _ref_l2_iterated(q_dim, alpha, k):
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    out = 1.0
    for j in range(k):
        d = 0.5 * (q_dim - 2.0) - (alpha + j)
        if d == 0.0:
            raise DegenerateConstantError(
                f"factor j={j} vanishes: (Q-2)/2 = alpha + j", factor_index=j
            )
        out /= abs(d)
    return out


def _ref_combined_first(q_dim, beta, k):
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    out = 1.0
    for j in range(k):
        d = 0.5 * (q_dim - 2.0) - (beta - k + j)
        if d == 0.0:
            raise DegenerateConstantError(
                f"factor j={j} vanishes: (Q-2)/2 = beta - k + j", factor_index=j
            )
        out /= abs(d)
    return out


def _ref_combined_high(q_dim, alpha, k):
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    out = 1.0
    for j in range(k):
        d = 0.5 * (q_dim - 2.0) - (alpha - k + j)
        if d == 0.0:
            raise DegenerateConstantError(
                f"factor j={j} vanishes: (Q-2)/2 = alpha - k + j", factor_index=j
            )
        out /= abs(d)
    return out


# (constant, reference, whether it takes p, whether it takes an order)
_ORACLE = [
    (hardy_step_constant, _ref_hardy_step, True, False),
    (iterated_hardy_constant, _ref_iterated_hardy, True, True),
    (ladder_constant_alpha, _ref_ladder_alpha, True, True),
    (ladder_constant_beta, _ref_ladder_beta, True, True),
    (l2_iterated_constant, _ref_l2_iterated, False, True),
    (combined_first_constant, _ref_combined_first, False, True),
    (combined_high_constant, _ref_combined_high, False, True),
]


def _outcome(fn, *args):
    """A value as its type and float bits, or an exception as its type,
    message and ``factor_index``."""
    try:
        value = fn(*args)
    except (DegenerateConstantError, InvalidParameterError) as exc:
        return type(exc), str(exc), getattr(exc, "factor_index", None)
    return type(value), float(value).hex()


# Q, p and the weight on a grid of halves, where factors vanish exactly
# (Q = 4, p = 2, alpha = 1 is one such point), or anywhere in range
_Q = st.one_of(st.integers(1, 12).map(float), st.floats(1.0, 12.0))
_P = st.one_of(st.sampled_from([1.5, 2.0, 3.0, 4.0, 1.0, 0.5, math.nan, math.inf]),
               st.floats(1.01, 6.0))
_X = st.one_of(st.integers(-8, 8).map(lambda i: i / 2), st.floats(-4.0, 4.0))


@settings(max_examples=2000, deadline=None)
@given(q=_Q, p=_P, x=_X, k=st.integers(-1, 5))
def test_every_product_constant_matches_the_reference(q, p, x, k):
    for fn, ref, takes_p, takes_order in _ORACLE:
        args = (q, *(p,) * takes_p, x, *(k,) * takes_order)
        assert _outcome(fn, *args) == _outcome(ref, *args), fn.__name__


@pytest.mark.parametrize("fn,ref,takes_p,takes_order", _ORACLE,
                         ids=[case[0].__name__ for case in _ORACLE])
def test_degenerate_grid_matches_the_reference(fn, ref, takes_p, takes_order):
    degenerate = 0
    for q in range(1, 9):
        for p in (1.5, 2.0, 3.0):
            for x in (i / 2 for i in range(-6, 7)):
                for k in range(0, 4) if takes_order else (None,):
                    args = (float(q), *(p,) * takes_p, x, *(k,) * takes_order)
                    got = _outcome(fn, *args)
                    assert got == _outcome(ref, *args), args
                    degenerate += got[0] is DegenerateConstantError
    assert degenerate > 0


def test_empty_products_are_the_float_one():
    # an int 1 would be written to JSON as 1, not 1.0
    for value in (ladder_constant_alpha(4.0, 2.0, 1.0, 0),
                  ladder_constant_beta(4.0, 2.0, 1.0, 0)):
        assert type(value) is float and value == 1.0
    table = constant_table(4.0, 2.0, alpha=1.0, beta=1.0, k=0, m=0)
    assert type(table["ladder_alpha"]["value"]) is float
    assert type(table["ladder_beta"]["value"]) is float


def test_numpy_inputs_keep_the_reference_type_and_bits():
    q, p, x = np.float64(7.0), np.float64(2.5), np.float64(0.4)
    for fn, ref, takes_p, takes_order in _ORACLE:
        args = (q, *(p,) * takes_p, x, *(3,) * takes_order)
        assert _outcome(fn, *args) == _outcome(ref, *args), fn.__name__
