"""Property tests: the library tape's gradient, and the reference tape's adjoints, match central differences."""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cib.data_io import validate_config
from cib.diffcore import ACTIVATIONS, ParamStore, Tape, grad_check, logsumexp_rows
from cib.model import build_state, make_loss_fn
from helpers import (
    ChainTape,
    LossSpec,
    central_difference,
    chain_loss,
    fused_loss_alone,
    loop_grad_check,
    numpy_logsumexp_rows,
    shared_by_rows,
)

# derandomized so that a tier-1 failure replays from its test id; no
# example database is written
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

EPS = 1e-6
TOL = 1e-5


def values(lo=-2.0, hi=2.0):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False, allow_subnormal=False)


def matrix(rows, cols, lo=-2.0, hi=2.0):
    return arrays(np.float64, (rows, cols), elements=values(lo, hi))


def _assert_adjoints(params, build, weight_seed):
    """Reference-tape backward of sum(w * op(params)) against central differences, with fixed random weights w."""
    store = ParamStore(list(params.items()))
    weights = {}

    def lossfn(s):
        tape = ChainTape(s)
        out = build(tape)
        if "w" not in weights:
            rng = np.random.default_rng(weight_seed)
            weights["w"] = rng.uniform(-1.0, 1.0, size=tape.val(out).shape)
        return tape, tape.sum_all(tape.mul(out, tape.const(weights["w"])))

    tape, out = lossfn(store)
    analytic = tape.backward(out)

    def f(theta):
        probe = store.copy()
        probe.values[:] = theta
        t2, o2 = lossfn(probe)
        return float(t2.val(o2))

    numeric = central_difference(f, store.values, eps=EPS)
    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    assert rel.max() < TOL, f"max rel {rel.max():.2e}"


def _assert_tape_gradient(store, spec):
    """The library tape's gradient of the loss ``spec`` against central differences."""
    tape, _ = fused_loss_alone(store, spec)
    analytic = tape.backward()[0]

    def f(theta):
        probe = store.copy()
        probe.values[:] = theta
        return float(fused_loss_alone(probe, spec)[1]["total"])

    numeric = central_difference(f, store.values, eps=EPS)
    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    assert rel.max() < TOL, f"max rel {rel.max():.2e}"


def _loss(params, x, labels, noise, activation="tanh", head="softmax", learned_lv=True, learned_sigma=True,
          beta_prime=1.0):
    """Store and spec of a loss whose net has the slices W0, b0, W1, ... of ``params``.

    Beside them ``params`` holds ``v`` (log eta^2 when ``learned_lv``, else
    the log-variance itself), the surrogate ``p`` (K, d) and ``q`` (K,), and
    for the softmax head its readout ``hW``, ``hb``.
    """
    weights = tuple(name for name in params if name[0] in "Wb")
    names = list(weights) + ["p"] + (["q"] if learned_sigma else []) + (["v"] if learned_lv else [])
    names += ["hW", "hb"] if head == "softmax" else []
    k = params["p"].shape[0]
    q = "q" if learned_sigma else None
    if head == "softmax":
        score_rule = ("softmax", "hW", "hb", None)
    else:
        score_rule = ("naive_bayes", "p", q, np.log(np.full(k, 1.0 / k)))
    spec = LossSpec(
        x=x, labels=labels, noise=noise, weights=weights, activation=activation,
        sigma2=0.1 if learned_lv else float(np.exp(params["v"])), log_eta2="v" if learned_lv else None,
        score_rule=score_rule, mu="p", log_sigma=q, beta_prime=beta_prime,
    )
    return ParamStore([(name, params[name]) for name in names]), spec


@st.composite
def mlp_cases(draw):
    dims = [draw(st.integers(1, 4)) for _ in range(draw(st.integers(2, 4)))]
    batch = draw(st.integers(1, 5))
    params = {}
    for l in range(len(dims) - 1):
        params[f"W{l}"] = draw(matrix(dims[l + 1], dims[l], -1.5, 1.5))
        params[f"b{l}"] = draw(arrays(np.float64, (dims[l + 1],), elements=values(-1.5, 1.5)))
    x = draw(matrix(batch, dims[0]))
    return params, x, draw(st.sampled_from(["relu", "softplus", "tanh"]))


@PROPERTY
@given(case=mlp_cases(), seed=st.integers(0, 2**32 - 1))
def test_mlp_adjoints(case, seed):
    """The net's slices take the adjoint of the means; the rest of the loss is drawn from ``seed``."""
    params, x, activation = case
    if activation == "relu":
        # central differences straddle no kink: every pre-activation clears 0 by far more than EPS
        h = x
        for l in range(len(params) // 2 - 1):
            h = h @ params[f"W{l}"].T + params[f"b{l}"]
            assume(np.all(np.abs(h) > 1e-3))
            h = np.maximum(h, 0.0)
    rng = np.random.default_rng(seed)
    batch, d = x.shape[0], params[f"b{len(params) // 2 - 1}"].shape[0]
    params.update(v=np.asarray(rng.uniform(-1.0, 1.0)), p=rng.uniform(-1.0, 1.0, (2, d)),
                  q=rng.uniform(-0.5, 0.5, 2), hW=rng.uniform(-1.0, 1.0, (2, d)), hb=rng.uniform(-1.0, 1.0, 2))
    noise = rng.standard_normal((2, batch, d))
    labels = rng.integers(0, 2, batch)
    _assert_tape_gradient(*_loss(params, x, labels, noise, activation=activation))


@st.composite
def loss_cases(draw):
    """Means ``m`` as the weights of a linear net on the identity batch, so means == m exactly."""
    batch, dim, classes = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    m = draw(matrix(batch, dim))
    params = {
        "W0": np.ascontiguousarray(m.T),
        "b0": np.zeros(dim),
        "v": np.asarray(draw(values(-1.0, 1.0))),
        "p": draw(matrix(classes, dim)),
        "q": draw(arrays(np.float64, (classes,), elements=values(-0.7, 0.7))),
        "hW": draw(matrix(classes, dim)),
        "hb": draw(arrays(np.float64, (classes,), elements=values(-1.0, 1.0))),
    }
    labels = np.asarray(draw(st.lists(st.integers(0, classes - 1), min_size=batch, max_size=batch)))
    return params, np.eye(batch), labels


@PROPERTY
@given(case=loss_cases(), draws=st.integers(1, 3), head=st.sampled_from(["softmax", "naive_bayes"]),
       learned=st.booleans(), noise_seed=st.integers(0, 2**32 - 1))
def test_mc_cross_entropy_adjoints(case, draws, head, learned, noise_seed):
    """beta' = 0: the gradient is the cross-entropy's alone; ``learned`` False fixes v and the class sigmas."""
    params, x, labels = case
    noise = np.random.default_rng(noise_seed).standard_normal((draws, x.shape[0], params["p"].shape[1]))
    _assert_tape_gradient(*_loss(params, x, labels, noise, head=head, learned_lv=learned, learned_sigma=learned,
                                 beta_prime=0.0))


@PROPERTY
@given(case=loss_cases(), beta_prime=values(0.5, 3.0), learned=st.booleans())
def test_kl_to_surrogate_rows_adjoints(case, beta_prime, learned):
    """With the softmax readout the surrogate slices take adjoints from the KL rows alone."""
    params, x, labels = case
    noise = np.ones((1, x.shape[0], params["p"].shape[1]))
    _assert_tape_gradient(*_loss(params, x, labels, noise, learned_lv=learned, learned_sigma=learned,
                                 beta_prime=beta_prime))


PRIMITIVES = {
    "add": (2, lambda t, a, b: t.add(a, b)),
    "scale": (1, lambda t, a: t.scale(a, -1.7)),
    "add_const": (1, lambda t, a: t.add_const(a, 0.9)),
    "exp": (1, lambda t, a: t.exp(a)),
    "log": (1, lambda t, a: t.log(a)),
    "mean_all": (1, lambda t, a: t.mean_all(a)),
}


@PROPERTY
@given(name=st.sampled_from(sorted(PRIMITIVES)), rows=st.integers(1, 4), cols=st.integers(1, 4),
       data=st.data(), weight_seed=st.integers(0, 2**32 - 1))
def test_primitive_adjoints(name, rows, cols, data, weight_seed):
    arity, op = PRIMITIVES[name]
    lo, hi = (0.2, 3.0) if name == "log" else (-2.0, 2.0)
    params = {f"a{i}": data.draw(matrix(rows, cols, lo, hi)) for i in range(arity)}
    _assert_adjoints(params, lambda t: op(t, *(t.param(n) for n in params)), weight_seed)


@PROPERTY
@given(case=loss_cases(), head=st.sampled_from(["softmax", "naive_bayes"]), learned=st.booleans(),
       draws=st.integers(1, 3), beta_prime=values(0.0, 3.0))
def test_library_tape_gives_the_reference_tape_gradient(case, head, learned, draws, beta_prime):
    """The adjoints above are taken against central differences; the reference chain agrees bit for bit."""
    params, x, labels = case
    noise = np.random.default_rng(draws).standard_normal((draws, x.shape[0], params["p"].shape[1]))
    store, spec = _loss(params, x, labels, noise, head=head, learned_lv=learned, learned_sigma=learned,
                        beta_prime=beta_prime)
    tape, fused = fused_loss_alone(store, spec)
    chain = ChainTape(store)
    nodes = chain_loss(chain, spec)
    assert all(np.array_equal(fused[part], chain.val(node)) for part, node in nodes.items())
    assert np.array_equal(tape.backward()[0], chain.backward(nodes["total"]))


@PROPERTY
@given(head=st.sampled_from(["softmax", "naive_bayes"]), activation=st.sampled_from(ACTIVATIONS),
       noise_mode=st.sampled_from(["fixed_sigma", "learned_eta"]), learn_sigma=st.booleans(),
       draws=st.integers(1, 3), batch=st.integers(1, 9), widths=st.lists(st.integers(1, 9), min_size=2, max_size=3),
       classes=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_stacked_probes_equal_one_probe_at_a_time(head, activation, noise_mode, learn_sigma, draws, batch, widths,
                                                  classes, seed):
    """Each row of a stacked store's total is that row's loss alone, and grad_check equals the per-probe loop."""
    cfg = validate_config({
        "dataset": {"kind": "json", "train": "-", "test": "-"},
        "encoder": {"layer_dims": widths, "activation": activation, "noise_mode": noise_mode, "sigma2": 0.7},
        "decoder": {"variant": head}, "surrogate": {"learn_sigma": learn_sigma},
        "loss": {"beta_prime": 0.9, "mc_samples": draws}, "seed": 0,
    })
    rng = np.random.default_rng(seed)
    state = build_state(cfg, np.full(classes, 1.0 / classes), rng)
    store = state.store
    store.set("sur.mu", rng.uniform(-1.0, 1.0, store.spec("sur.mu").shape))
    if learn_sigma:
        store.set("sur.log_sigma", rng.uniform(-0.5, 0.5, classes))
    x = rng.uniform(-2.0, 2.0, (batch, widths[0]))
    labels = rng.integers(0, classes, batch)
    lossfn = make_loss_fn(state, x, labels, 0.9, rng.standard_normal((draws, batch, widths[-1])))

    rows = store.values + rng.uniform(-0.3, 0.3, (5, store.size))
    totals = lossfn(store.with_values(rows))[0]
    assert totals.shape == (5,)
    assert all(totals[i] == lossfn(store.with_values(rows[i : i + 1]))[0][0] for i in range(5))
    report = grad_check(lossfn, store, eps=1e-5, tol=1e-5)
    analytic, numeric = loop_grad_check(lossfn, store, 1e-5)
    assert np.array_equal(report.analytic, analytic) and np.array_equal(report.numeric, numeric)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(head=st.sampled_from(["softmax", "naive_bayes"]), activation=st.sampled_from(ACTIVATIONS),
       noise_mode=st.sampled_from(["fixed_sigma", "learned_eta"]), learn_sigma=st.booleans(),
       stack=st.integers(1, 6), batch=st.integers(1, 70), dim=st.integers(1, 9), classes=st.integers(2, 7),
       draws=st.integers(1, 4), per_row=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_stacked_backward_equals_each_rows_backward(head, activation, noise_mode, learn_sigma, stack, batch, dim,
                                                    classes, draws, per_row, seed):
    """A stacked tape's losses and (P, size) gradient are, row by row, ``==`` those of each vector in a stack of one.

    ``per_row`` gives every row its own batch, labels, noise and beta', as
    lockstep training does; otherwise every row gets the same ones as
    broadcast views, as gradient-check probes do.  A row alone takes a copy
    of its inputs, so a view gives the bits of a copy.
    """
    cfg = validate_config({
        "dataset": {"kind": "json", "train": "-", "test": "-"},
        "encoder": {"layer_dims": [3, 5, dim], "activation": activation, "noise_mode": noise_mode, "sigma2": 0.7},
        "decoder": {"variant": head}, "surrogate": {"learn_sigma": learn_sigma},
        "loss": {"beta_prime": 1.0, "mc_samples": draws}, "seed": 0,
    })
    rng = np.random.default_rng(seed)
    state = build_state(cfg, np.full(classes, 1.0 / classes), rng)
    rows = rng.uniform(-1.0, 1.0, (stack, state.store.size))
    lead = (stack,) if per_row else ()
    x = rng.uniform(-2.0, 2.0, lead + (batch, 3))
    labels = rng.integers(0, classes, lead + (batch,))
    noise = rng.standard_normal(lead + (draws, batch, dim))
    beta_prime = rng.uniform(0.0, 3.0, stack) if per_row else 0.9

    tape = Tape(state.store.with_values(rows))
    inputs = (x, labels, beta_prime, noise) if per_row else shared_by_rows(tape.store, x, labels, beta_prime, noise)
    stacked = state.loss_graph(tape, *inputs)
    grad = tape.backward()
    assert grad.shape == rows.shape
    for i in range(stack):
        alone = Tape(state.store.with_values(rows[i : i + 1]))
        values = state.loss_graph(alone, *(a[i : i + 1].copy() for a in inputs))
        assert all(part[i] == value[0] for part, value in zip(stacked, values))
        assert np.array_equal(grad[i], alone.backward()[0])


SPECIALS = (np.inf, -np.inf, np.nan, -np.nan, 0.0, -0.0)


@st.composite
def score_arrays(draw):
    """(N, K) or (P, B, K) scores, K from 1 to 20, with infinities, NaNs of either sign and zeros of either sign.

    The entries are seeded uniform draws, so that most rows round
    differently when summed in another order, and then some are overwritten
    by special or arbitrary floats.
    """
    width = draw(st.integers(1, 20))
    lead = draw(st.one_of(st.tuples(st.integers(1, 40)), st.tuples(st.integers(1, 5), st.integers(1, 12))))
    a = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-4.0, 4.0, lead + (width,))
    entry = st.tuples(st.integers(0, a.size - 1), st.one_of(st.sampled_from(SPECIALS), st.floats()))
    for i, value in draw(st.lists(entry, max_size=a.size)):
        a.flat[i] = value
    return np.asfortranarray(a) if draw(st.booleans()) else a


@settings(PROPERTY, max_examples=300)
@example(a=np.array([[-np.nan, 0.0], [0.0, -np.nan], [np.inf, np.inf], [-np.inf, -np.inf], [-0.0, -0.0]]))
@example(a=np.array([[-np.nan, 1.0, np.nan, 2.0, -np.nan, 0.5, np.inf]]))
@given(a=score_arrays())
def test_logsumexp_rows_gives_numpys_reduction(a):
    """``logsumexp_rows`` gives numpy's reduction's values and sign bits, NaN included, on either side of width 8.

    Below 8 entries it takes column passes that reproduce numpy's row-sum
    order; a numpy release that changes that order fails here.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        got, want = logsumexp_rows(a), numpy_logsumexp_rows(a)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))
