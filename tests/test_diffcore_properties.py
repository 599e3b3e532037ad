"""Property tests: the adjoint of every op the library's tape records matches central differences."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cib.diffcore import ParamStore, Tape
from helpers import ChainTape, central_difference

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
    """Backward of sum(w * op(params)) against central differences, with fixed random weights w."""
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
@given(case=mlp_cases(), weight_seed=st.integers(0, 2**32 - 1))
def test_mlp_adjoints(case, weight_seed):
    params, x, activation = case
    if activation == "relu":
        # central differences straddle no kink: every pre-activation clears 0 by far more than EPS
        h = x
        for l in range(len(params) // 2 - 1):
            h = h @ params[f"W{l}"].T + params[f"b{l}"]
            assume(np.all(np.abs(h) > 1e-3))
            h = np.maximum(h, 0.0)
    _assert_adjoints(params, lambda t: t.mlp(x, [t.param(n) for n in params], activation), weight_seed)


@st.composite
def loss_cases(draw):
    batch, dim, classes = draw(st.integers(1, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    params = {
        "m": draw(matrix(batch, dim)),
        "v": np.asarray(draw(values(-1.0, 1.0))),
        "p": draw(matrix(classes, dim)),
        "q": draw(arrays(np.float64, (classes,), elements=values(-0.7, 0.7))),
    }
    labels = np.asarray(draw(st.lists(st.integers(0, classes - 1), min_size=batch, max_size=batch)))
    return params, labels


@PROPERTY
@given(case=loss_cases(), draws=st.integers(1, 3), head=st.sampled_from(["softmax", "naive_bayes"]),
       noise_seed=st.integers(0, 2**32 - 1), weight_seed=st.integers(0, 2**32 - 1))
def test_mc_cross_entropy_adjoints(case, draws, head, noise_seed, weight_seed):
    params, labels = case
    noise = np.random.default_rng(noise_seed).standard_normal((draws, *params["m"].shape))
    k = params["q"].shape[0]
    log_priors = np.log(np.full(k, 1.0 / k)) if head == "naive_bayes" else None

    def build(t):
        return t.mc_cross_entropy(t.param("m"), t.param("v"), noise, labels, head, t.param("p"), t.param("q"),
                                  log_priors)

    _assert_adjoints(params, build, weight_seed)


@PROPERTY
@given(case=loss_cases(), weight_seed=st.integers(0, 2**32 - 1))
def test_kl_to_surrogate_rows_adjoints(case, weight_seed):
    params, labels = case

    def build(t):
        return t.kl_to_surrogate_rows(t.param("m"), t.param("v"), t.param("p"), t.param("q"), labels)

    _assert_adjoints(params, build, weight_seed)


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
@given(case=loss_cases())
def test_library_tape_gives_the_reference_tape_gradient(case):
    """The adjoints above are taken on the reference tape; the library's own tape, with view leaves, agrees."""
    params, labels = case
    store = ParamStore(list(params.items()))
    grads = []
    for tape in (Tape(store), ChainTape(store)):
        rows = tape.kl_to_surrogate_rows(tape.param("m"), tape.param("v"), tape.param("p"), tape.param("q"), labels)
        ce = tape.mc_cross_entropy(tape.param("m"), tape.param("v"), np.ones((1, *params["m"].shape)), labels,
                                   "softmax", tape.param("p"), tape.param("q"))
        grads.append(tape.backward(tape.add(tape.mean_all(rows), tape.scale(ce, 0.5))))
    assert np.array_equal(grads[0], grads[1])
