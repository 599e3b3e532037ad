"""Property tests of the exact-oracle identities over drawn tables and samples."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cib.discrete_oracle import (
    DiscreteEncoder,
    DiscreteJoint,
    ProductSurrogate,
    decomposition_check,
    induced,
    info_report,
    optimal_product_surrogate,
    perturbed_product_surrogates,
    sample_kl_objective,
    surrogate_optimality_check,
)

# derandomized so that a tier-1 failure replays from its test id; no
# example database is written
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

# zero cells are drawn often, so supports are partial
MASS = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
ARITIES = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)


def _rows(table):
    """Normalize the last axis; a row without mass gets its first entry."""
    table = table.copy()
    flat = table.reshape(-1, table.shape[-1])
    flat[flat.sum(axis=1) == 0.0, 0] = 1.0
    return table / table.sum(axis=-1, keepdims=True)


@st.composite
def instances(draw):
    """A joint with every class of positive mass, an encoder over it, and its alphabet."""
    nx, ny = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    arities = draw(ARITIES)
    p = _rows(draw(arrays(np.float64, (ny, nx), elements=MASS))).T
    q = _rows(draw(arrays(np.float64, (nx, int(np.prod(arities))), elements=MASS)))
    return DiscreteJoint(p / p.sum()), DiscreteEncoder(q, arities)


@st.composite
def product_surrogates(draw, ny, arities):
    return ProductSurrogate(tuple(
        tuple(_rows(draw(arrays(np.float64, (a,), elements=MASS))) for a in arities)
        for _ in range(ny)
    ))


@st.composite
def sampled_encoders(draw):
    """An encoder and (x, y) samples that hit every class from 0 to the largest label."""
    nx, ny = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    arities = draw(ARITIES)
    q = _rows(draw(arrays(np.float64, (nx, int(np.prod(arities))), elements=MASS)))
    extra = draw(st.lists(st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1)), max_size=12))
    firsts = [(draw(st.integers(0, nx - 1)), y) for y in range(ny)]
    return DiscreteEncoder(q, arities), firsts + extra


@PROPERTY
@given(instance=instances())
def test_chain_rule_gap_is_zero_and_quantities_nonnegative(instance):
    rep = info_report(*instance)
    assert rep.chain_rule_gap() == pytest.approx(0.0, abs=1e-12)
    for value in (rep.H_Y, rep.H_Y_given_T, rep.I_XT, rep.I_YT, rep.I_XT_given_Y, rep.I_XY_given_T):
        assert value >= -1e-12
    assert np.all(rep.TC_given_y >= -1e-12)


@PROPERTY
@given(data=st.data(), instance=instances())
def test_decomposition_balances(data, instance):
    joint, enc = instance
    surrogate = data.draw(product_surrogates(joint.ny, enc.arities))
    rep = decomposition_check(joint, enc, surrogate)
    # infinite on one side exactly when infinite on the other
    assert math.isinf(rep.lhs) == math.isinf(rep.rhs)
    if math.isfinite(rep.lhs):
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12, abs=1e-12)


@PROPERTY
@given(data=st.data(), instance=instances())
def test_decomposition_compression_is_the_info_report_value(data, instance):
    joint, enc = instance
    surrogate = data.draw(product_surrogates(joint.ny, enc.arities))
    assert decomposition_check(joint, enc, surrogate).i_xt_given_y == info_report(joint, enc).I_XT_given_Y


@PROPERTY
@given(instance=instances())
def test_optimal_product_residual_is_conditional_total_correlation(instance):
    joint, enc = instance
    best = optimal_product_surrogate(induced(joint, enc).t_given_y, enc.arities)
    rep = decomposition_check(joint, enc, best)
    expected = float(np.sum(joint.p.sum(axis=0) * info_report(joint, enc).TC_given_y))
    assert rep.kl_residual == pytest.approx(expected, abs=1e-12)
    assert rep.gap == pytest.approx(0.0, abs=1e-12)


@PROPERTY
@given(drawn=sampled_encoders())
def test_optimal_product_surrogate_has_zero_gap_and_no_better_neighbour(drawn):
    enc, samples = drawn
    rep = surrogate_optimality_check(samples, enc)
    assert math.isfinite(rep.lhs_min)
    assert rep.gap == pytest.approx(0.0, abs=1e-10)
    for cand in perturbed_product_surrogates(rep.surrogate, step=0.01):
        assert sample_kl_objective(samples, enc, cand) >= rep.lhs_min - 1e-10
