"""Property tests of the exact-oracle identities over drawn tables and samples."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cib.discrete_oracle import (
    DiscreteEncoder,
    DiscreteJoint,
    ProductSurrogate,
    _checked_samples,
    _kl_rows,
    _xlogx,
    decomposition_check,
    induced,
    info_report,
    kl_discrete,
    objective_values,
    optimal_product_surrogate,
    perturbed_product_surrogates,
    sample_kl_objective,
    surrogate_optimality_check,
)
from helpers import (
    factor_tuple_surrogate,
    loop_checked_samples,
    loop_perturbed_product_surrogates,
    loop_product_surrogate_problem,
    masked_induced,
    masked_xlogx,
    outer_expand,
    per_class_decomposition_check,
    three_pass_optimality_check,
    two_pass_info_report,
)

REPORT_FIELDS = ("H_Y", "H_Y_given_T", "I_XT", "I_YT", "I_XT_given_Y", "I_XY_given_T")

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


def _conditional_entropy_y_given_x(p):
    """H(Y|X) in nats straight from the joint table, with 0 log 0 = 0."""
    p_x = np.broadcast_to(p.sum(axis=1, keepdims=True), p.shape)
    cells = p > 0.0
    return float(-np.sum(p[cells] * np.log(p[cells] / p_x[cells])))


@PROPERTY
@given(instance=instances(), beta=st.floats(0.0, 1.0), beta_prime=st.floats(0.0, 50.0))
def test_sufficiency_form_differs_from_l_cib_by_h_y_given_x(instance, beta, beta_prime):
    # the encoder sees only X, so H(Y|T) - I(X;Y|T) = H(Y|X, T) = H(Y|X)
    joint, _ = instance
    values = objective_values(info_report(*instance), beta, beta_prime)
    gap = values.l_cib - values.sufficiency_objective
    assert gap == pytest.approx(_conditional_entropy_y_given_x(joint.p), abs=1e-12)


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
    best = optimal_product_surrogate(induced(joint, enc), enc.arities)
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


# the fast paths against their references in helpers: more examples, since
# each is cheap and the edge cases are sparse
FAST_PATH = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# masses below every step but the smallest, zero mass, and the whole mass
STEPS = st.sampled_from([0.01, 0.05, 0.3, 1.0, 2.0])


def _bits(surrogate):
    return [[(f.shape, f.tobytes()) for f in class_factors] for class_factors in surrogate.factors]


@FAST_PATH
@given(data=st.data(), ny=st.integers(1, 3), arities=ARITIES, step=STEPS)
def test_candidates_equal_the_one_move_reference(data, ny, arities, step):
    """Same count, order and factor bits as one move at a time; the carried table is the factors' outer product."""
    surrogate = data.draw(product_surrogates(ny, arities))
    ours = list(perturbed_product_surrogates(surrogate, step=step))
    theirs = list(loop_perturbed_product_surrogates(surrogate, step=step))
    assert len(ours) == len(theirs)
    for cand, ref in zip(ours, theirs):
        assert _bits(cand) == _bits(ref)
        expanded = np.stack([outer_expand(ref, y) for y in range(ny)])
        assert cand.table.tobytes() == ref.table.tobytes() == expanded.tobytes()


# NaN, infinities, negatives, and halves off by 2e-12
ODD_ENTRY = st.sampled_from([np.nan, np.inf, -np.inf, -0.25, -0.0, 0.5, 0.5 + 2e-12, 0.5 - 2e-12, 1.0])
# moves the sum off 1 by about 0.6, 1.5 or 3 times the 1e-12 tolerance
SUM_SHIFT = st.sampled_from([0.0, 6e-13, -6e-13, 1.5e-12, -1.5e-12, 3e-12, -3e-12])


@st.composite
def factors(draw, arity):
    """A distribution, one with its sum shifted or mass pushed below zero, or odd entries."""
    kind = draw(st.integers(0, 3)) if arity else 3
    if kind == 3:
        return draw(arrays(np.float64, (arity,), elements=st.one_of(MASS, ODD_ENTRY)))
    f = _rows(draw(arrays(np.float64, (arity,), elements=MASS)))
    if kind == 1:
        f[0] += draw(SUM_SHIFT)
    elif kind == 2 and arity > 1:  # the sum stays 1 while an entry may go negative
        shift = draw(st.sampled_from([0.25, 0.5, 1.5]))
        f[0] += shift
        f[1] -= shift
    return f


@st.composite
def factor_tuples(draw):
    """Per-class factor tuples: distributions, odd entries, empty factors, other arities."""
    arities = draw(st.lists(st.integers(0, 4), max_size=3))
    classes = []
    for _ in range(draw(st.integers(0, 3))):
        shape = arities if draw(st.integers(0, 4)) else draw(st.lists(st.integers(0, 4), max_size=3))
        classes.append(tuple(draw(factors(a)) for a in shape))
    return tuple(classes)


@FAST_PATH
@given(factors=factor_tuples())
def test_product_surrogate_checks_like_the_per_factor_reference(factors):
    problem = loop_product_surrogate_problem(factors)
    if problem is None:
        ProductSurrogate(factors)
    else:
        with pytest.raises(ValueError) as err:
            ProductSurrogate(factors)
        assert str(err.value) == problem


def _outcome(fn):
    try:
        out = fn()
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return ("ValueError", out) if isinstance(out, str) else (out.dtype, out.shape, out.tobytes())


ENTRIES = st.one_of(
    st.integers(-2, 5), st.booleans(), st.floats(-2.0, 5.0),
    st.integers(-2, 5).map(np.int64), st.integers(0, 5).map(np.uint8), st.booleans().map(np.bool_),
    st.sampled_from([2**63, -2**63 - 1]),  # just beyond intp
)
SAMPLE_ARRAYS = st.one_of(
    *(arrays(dtype, st.tuples(st.integers(0, 5), st.integers(1, 3)), elements=st.integers(lo, 5))
      for dtype, lo in ((np.int8, -2), (np.int64, -2), (np.uint8, 0), (np.intp, -2))),
    arrays(np.uint64, st.tuples(st.integers(1, 3), st.just(2)),
           elements=st.one_of(st.integers(0, 5), st.just(2**63), st.just(2**64 - 1))),
    arrays(np.int64, st.integers(0, 4), elements=st.integers(0, 3)),
    arrays(np.bool_, (3, 2)),
    arrays(np.float64, (3, 2), elements=st.integers(0, 3).map(float)),
    arrays(object, (3, 2), elements=ENTRIES),
)


@FAST_PATH
@given(samples=st.one_of(st.lists(st.lists(ENTRIES, min_size=1, max_size=3), max_size=5), SAMPLE_ARRAYS))
@example(samples=np.array([[0, 2**63]], dtype=np.uint64))
@example(samples=np.array([[2**64 - 1, 0]], dtype=np.uint64))
@example(samples=[(0, 2**70)])
@example(samples=[(-2**70, 1)])
@example(samples=np.zeros((0, 2), dtype=np.int64))
@example(samples=[(0, True), (1, 0)])
@example(samples=[(np.int8(3), np.uint8(1)), (0, 0)])
def test_checked_samples_accept_and_reject_like_the_object_scan(samples):
    enc = DiscreteEncoder(np.full((4, 2), 0.5), (2,))
    assert _outcome(lambda: _checked_samples(samples, enc)) == _outcome(lambda: loop_checked_samples(samples, 4))


@FAST_PATH
@given(data=st.data(), rows=st.integers(0, 6), width=st.integers(1, 5))
def test_kl_rows_equal_row_by_row_kl_discrete(data, rows, width):
    """Zeros (0 log 0 and +inf) and NaN entries included."""
    entries = st.one_of(MASS, st.just(np.nan))
    p = _rows(data.draw(arrays(np.float64, (rows, width), elements=entries)))
    q = _rows(data.draw(arrays(np.float64, (rows, width), elements=entries)))
    ours = _kl_rows(p, q)
    theirs = np.array([kl_discrete(a, b) for a, b in zip(p, q)], dtype=np.float64)
    assert ours.tobytes() == theirs.tobytes()


# the stacked passes against their unstacked forms in helpers: negative zeros,
# zero cells, classes without mass, NaN rows and infinite KLs included
STACKED = settings(max_examples=100, deadline=None, derandomize=True, database=None)
SIGNED_MASS = st.one_of(MASS, st.just(-0.0))


def _float_bits(*values):
    return [np.float64(v).tobytes() for v in values]


@st.composite
def open_instances(draw):
    """Like ``instances``, with negative zeros, and often a class without mass when there are two or more."""
    nx, ny = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    arities = draw(ARITIES)
    p = _rows(draw(arrays(np.float64, (ny, nx), elements=SIGNED_MASS)))
    if ny > 1 and draw(st.booleans()):
        p[draw(st.integers(0, ny - 1))] = draw(st.sampled_from([0.0, -0.0]))
    q = _rows(draw(arrays(np.float64, (nx, math.prod(arities)), elements=SIGNED_MASS)))
    return DiscreteJoint(p.T / p.sum()), DiscreteEncoder(q, arities)


@STACKED
@given(p=arrays(np.float64, st.tuples(st.integers(0, 3), st.integers(0, 6)),
                elements=st.one_of(MASS, ODD_ENTRY, st.sampled_from([5e-324, 2.2e-308, 1e308]))))
def test_xlogx_equals_the_masked_form(p):
    with np.errstate(over="ignore"):  # 1e308 log 1e308 overflows in both
        assert _xlogx(p).tobytes() == masked_xlogx(p).tobytes()


@STACKED
@given(instance=open_instances())
def test_info_report_and_induced_equal_their_unstacked_forms(instance):
    ours, theirs = info_report(*instance), two_pass_info_report(*instance)
    assert _float_bits(*(getattr(ours, name) for name in REPORT_FIELDS)) == \
        _float_bits(*(getattr(theirs, name) for name in REPORT_FIELDS))
    assert ours.TC_given_y.tobytes() == theirs.TC_given_y.tobytes()
    assert induced(*instance).tobytes() == masked_induced(*instance).tobytes()  # NaN rows bit for bit


@STACKED
@given(data=st.data(), count=st.integers(0, 3), arities=st.lists(st.integers(0, 5), max_size=3))
def test_surrogate_from_stacks_equals_the_factor_tuples(data, count, arities):
    """Table and factor bits, or the first message, of the stack path, the constructor and the per-class tuples."""
    stacks = [np.array([data.draw(factors(a)) for _ in range(count)]).reshape(count, a) for a in arities]
    as_tuples = tuple(tuple(stack[y] for stack in stacks) for y in range(count))

    def outcome(build):
        try:
            surrogate = build()
        except ValueError as exc:
            return str(exc)
        return surrogate.table.tobytes(), surrogate.table.shape, _bits(surrogate)

    ours = outcome(lambda: ProductSurrogate._of_stacks(count, stacks))
    assert ours == outcome(lambda: ProductSurrogate(as_tuples)) == outcome(lambda: factor_tuple_surrogate(as_tuples))
    if not isinstance(ours, str):
        assert not ProductSurrogate._of_stacks(count, stacks).table.flags.writeable


@st.composite
def conditionals(draw, joint, enc):
    """The induced q(T|Y), or a table with zero cells, negative zeros and NaN rows."""
    if draw(st.booleans()):
        return induced(joint, enc)
    table = _rows(draw(arrays(np.float64, (joint.ny, enc.nt), elements=SIGNED_MASS)))
    table[draw(arrays(np.bool_, joint.ny))] = np.nan
    return table


@STACKED
@given(data=st.data(), instance=open_instances())
def test_decomposition_equals_the_per_class_residual(data, instance):
    """Surrogate zeros where q has mass give infinite KLs on either side."""
    joint, enc = instance
    surrogate = data.draw(product_surrogates(joint.ny, enc.arities))
    t_given_y, report = data.draw(conditionals(joint, enc)), info_report(joint, enc)
    ours = decomposition_check(joint, enc, surrogate, report, t_given_y)
    theirs = per_class_decomposition_check(joint, enc, surrogate, report, t_given_y)
    assert _float_bits(ours.lhs, ours.i_xt_given_y, ours.kl_residual) == \
        _float_bits(theirs.lhs, theirs.i_xt_given_y, theirs.kl_residual)


@STACKED
@given(drawn=sampled_encoders())
def test_optimality_check_equals_its_three_kl_passes(drawn):
    enc, samples = drawn
    ours = surrogate_optimality_check(samples, enc)
    lhs_min, rhs, best = three_pass_optimality_check(samples, enc)
    assert _float_bits(ours.lhs_min, ours.rhs) == _float_bits(lhs_min, rhs)
    assert (ours.surrogate.table.tobytes(), _bits(ours.surrogate)) == (best.table.tobytes(), _bits(best))
