"""The loss tape, the reference graph engine, and the gradient checker."""

import math
import pickle
import zlib

import numpy as np
import pytest

from cib import diffcore
from cib.diffcore import NonFiniteError, ParamStore, Tape, _act_grad, _activate, grad_check
from helpers import (
    ChainTape,
    LossSpec,
    central_difference,
    chain_loss,
    chain_naive_bayes_scores,
    chain_softmax_nll,
    fused_loss,
    fused_loss_alone,
    loop_grad_check,
    per_row,
    shared_by_rows,
    stack_of_one,
    where_act_grad,
)


class TestParamStore:
    def test_layout_is_disjoint_and_covering(self):
        store = ParamStore([("a", np.ones((2, 3))), ("b", np.zeros(4))])
        assert store.size == 10
        assert store.spec("a").offset == 0 and store.spec("a").size == 6
        assert store.spec("b").offset == 6 and store.spec("b").size == 4
        assert store.names() == ("a", "b")

    def test_get_returns_live_view(self):
        store = ParamStore([("w", np.arange(6.0).reshape(2, 3))])
        store.get("w")[0, 0] = 42.0
        assert store.values[0] == 42.0
        store.values[1] -= 8.0
        assert store.get("w")[0, 1] == -7.0
        with pytest.raises(KeyError, match="^'v'$"):
            store.get("v")

    def test_stacked_values_give_stacked_views(self):
        store = ParamStore([("w", np.arange(6.0).reshape(2, 3)), ("b", np.ones(2))])
        stacked = store.with_values(np.stack([store.values, -store.values, 2.0 * store.values]))
        assert stacked.size == store.size == 8 and stacked.get("b").shape == (3, 2)
        assert np.array_equal(stacked.get("w")[1], -store.get("w"))

    def test_set_checks_shape_and_finiteness(self):
        store = ParamStore([("w", np.zeros(3))])
        with pytest.raises(ValueError, match=r"^slice 'w' has shape \(3,\), got \(4,\)$"):
            store.set("w", np.zeros(4))
        with pytest.raises(ValueError):
            store.set("w", np.array([1.0, np.nan, 0.0]))

    @pytest.mark.parametrize("rows", [None, 3, 6])
    def test_set_writes_the_slice_of_every_stacked_vector(self, rows):
        store = ParamStore([("a", np.zeros(2)), ("b", np.zeros(())), ("c", np.zeros(3)), ("d", np.zeros(2))])
        if rows is not None:
            store = store.with_values(np.zeros((rows, store.size)))
        store.set("b", 0.5)
        store.set("c", np.ones(3))
        expected = [0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 0.0, 0.0]
        assert np.array_equal(store.values, np.broadcast_to(expected, store.values.shape))

    def test_rejects_no_slices_and_unknown_names(self):
        with pytest.raises(ValueError, match="at least one named slice"):
            ParamStore([])
        with pytest.raises(KeyError, match="^'nope'$"):
            ParamStore([("a", np.zeros(1))]).spec("nope")

    def test_a_pickled_stack_keeps_slices_that_view_its_values(self):
        """What a pool worker receives: the layout and values, with every slice rebound as a view."""
        store = ParamStore([("w", np.arange(6.0).reshape(2, 3)), ("b", np.ones(2))])
        stacked = store.with_values(np.stack([store.values, -store.values]))
        back = pickle.loads(pickle.dumps(stacked))
        assert dict(back.layout) == dict(stacked.layout) and np.array_equal(back.values, stacked.values)
        back.values[1] = 5.0
        assert np.array_equal(back.get("w")[1], np.full((2, 3), 5.0)) and np.array_equal(back.get("b")[0], np.ones(2))
        assert np.array_equal(stacked.values[1], -store.values)  # the copy shares nothing with the original

    def test_rejects_duplicate_names_and_nonfinite_init(self):
        with pytest.raises(ValueError):
            ParamStore([("a", np.zeros(1)), ("a", np.zeros(1))])
        with pytest.raises(ValueError):
            ParamStore([("a", np.array([np.inf]))])


class TestAffine:
    def test_identity_weights_pass_input_through(self):
        store = ParamStore([("W", np.eye(2)), ("b", np.zeros(2))])
        tape = ChainTape(store)
        out = tape.affine(tape.const([3.0, 4.0]), tape.param("W"), tape.param("b"))
        np.testing.assert_array_equal(tape.val(out), [3.0, 4.0])

    def test_zero_weights_return_bias(self):
        store = ParamStore([("W", np.zeros((2, 3))), ("b", np.array([1.0, 2.0]))])
        tape = ChainTape(store)
        out = tape.affine(tape.const([5.0, -1.0, 7.0]), tape.param("W"), tape.param("b"))
        np.testing.assert_array_equal(tape.val(out), [1.0, 2.0])

    def test_dimension_mismatch_names_the_layer(self):
        store = ParamStore([("W", np.zeros((2, 3))), ("b", np.zeros(2))])
        tape = ChainTape(store)
        with pytest.raises(ValueError, match="enc.layer0"):
            tape.affine(tape.const([1.0, 2.0]), tape.param("W"), tape.param("b"), label="enc.layer0")

    def test_gradient_wrt_weight_matrix_matches_central_differences(self):
        rng = np.random.default_rng(7)
        w0 = rng.uniform(-2.0, 2.0, size=(3, 2))
        b0 = rng.uniform(-2.0, 2.0, size=3)
        x = rng.uniform(-2.0, 2.0, size=2)
        store = ParamStore([("W", w0), ("b", b0)])

        tape = ChainTape(store)
        out = tape.sum_all(tape.affine(tape.const(x), tape.param("W"), tape.param("b")))
        analytic = tape.backward(out)

        def f(theta):
            w = theta[:6].reshape(3, 2)
            b = theta[6:]
            return float(np.sum(w @ x + b))

        numeric = central_difference(f, store.values, eps=1e-5)
        rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
        assert rel.max() < 1e-6


class TestActivations:
    def test_softplus_at_zero_is_log_two(self):
        tape = ChainTape()
        out = tape.activation(tape.const(np.array(0.0)), "softplus")
        assert tape.val(out) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_relu_values(self):
        tape = ChainTape()
        out = tape.activation(tape.const([-1.0, 2.0]), "relu")
        np.testing.assert_array_equal(tape.val(out), [0.0, 2.0])

    def test_softplus_derivative_at_zero_is_half(self):
        store = ParamStore([("x", np.array(0.0))])
        tape = ChainTape(store)
        out = tape.activation(tape.param("x"), "softplus")
        grad = tape.backward(out)
        assert grad[0] == pytest.approx(0.5, abs=1e-15)

    def test_softplus_is_stable_for_large_inputs(self):
        tape = ChainTape()
        out = tape.activation(tape.const([100.0, -100.0]), "softplus")
        np.testing.assert_allclose(tape.val(out), [100.0, 0.0], atol=1e-12)

    def test_unknown_kind_rejected(self):
        tape = ChainTape()
        with pytest.raises(ValueError):
            tape.activation(tape.const([1.0]), "sigmoid")


class TestBackwardBasics:
    def test_constant_output_has_zero_gradient(self):
        store = ParamStore([("w", np.ones(3))])
        tape = ChainTape(store)
        tape.param("w")
        out = tape.const(np.array(5.0))
        np.testing.assert_array_equal(tape.backward(out), np.zeros(3))

    def test_single_coordinate_output_gives_unit_vector(self):
        store = ParamStore([("w", np.arange(4.0))])
        tape = ChainTape(store)
        out = tape.sum_all(tape.take(tape.param("w"), np.array([2])))
        grad = tape.backward(out)
        np.testing.assert_array_equal(grad, [0.0, 0.0, 1.0, 0.0])

    def test_non_scalar_output_rejected(self):
        store = ParamStore([("w", np.ones(3))])
        tape = ChainTape(store)
        w = tape.param("w")
        with pytest.raises(ValueError, match=r"^backward needs a scalar output node, got shape \(3,\)$"):
            tape.backward(w)

    def test_backward_of_a_partial_loss_rejected(self):
        store = ParamStore([("W", np.ones((2, 2))), ("b", np.zeros(2))])
        tape = Tape(stack_of_one(store))
        tape.mlp(np.ones((1, 3, 2)), ("W", "b"), "relu")
        with pytest.raises(ValueError, match="backward needs"):
            tape.backward()

    def test_negative_zero_adjoints_reach_the_gradient_as_positive_zeros(self):
        """A naive-Bayes class that no row is labelled with and whose posterior underflows to 0.

        Its score adjoint is +0.0 on every row.  The head scores with slices
        of its own, so the class's mean adjoint, -sum(+0.0), and its
        log-sigma adjoint, sum(+0.0) * (-d / 2) - (+0.0), are -0.0 and reach
        the gradient as they are; it holds them as +0.0, as adding them onto
        zeros does.  (numpy adds a reduction onto +0.0, so a sum of -0.0
        entries is +0.0 and a relu's -0.0 adjoints never reach it.)
        """
        store = ParamStore([
            ("W", np.array([[1.0, 0.5], [-0.3, 0.8]])), ("b", np.array([0.5, -1.0])),
            ("mu", np.array([[0.5, -0.5], [1.0, 0.0]])), ("ls", np.array([0.1, -0.2])),
            ("nb_mu", np.array([[0.0, 0.0], [1e3, 1e3]])), ("nb_ls", np.array([0.0, -1.0])),
        ])
        rng = np.random.default_rng(3)
        x, labels = rng.normal(size=(1, 6, 2)), np.zeros((1, 6), dtype=np.intp)
        tape = Tape(stack_of_one(store))
        means = tape.mlp(x, ("W", "b"), "relu")
        log_var = tape.log_var(1.0)
        ce = tape.mc_cross_entropy(means, log_var, rng.normal(size=(1, 2, 6, 2)), labels, "naive_bayes",
                                   "nb_mu", "nb_ls", np.log([0.5, 0.5]))
        tape.total(ce, tape.kl_to_surrogate_rows(means, log_var, "mu", "ls", labels), np.array([0.7]))
        grad = tape.backward()[0]
        unused = [store.spec("nb_mu").offset + 2, store.spec("nb_mu").offset + 3, store.spec("nb_ls").offset + 1]
        assert (grad[unused] == 0.0).all()
        assert not np.signbit(grad[grad == 0.0]).any()

    def test_seed_scales_gradient(self):
        store = ParamStore([("w", np.array([2.0]))])
        tape = ChainTape(store)
        out = tape.sum_all(tape.mul(tape.param("w"), tape.param("w")))
        np.testing.assert_allclose(tape.backward(out, seed=3.0), 3.0 * tape.backward(out))


def _loss_through(op_builder, params, seed):
    """Scalar loss: weighted sum of the op output, for FD comparison."""
    rng = np.random.default_rng(seed)
    weights = {}

    def build(store):
        tape = ChainTape(store)
        out = op_builder(tape)
        shape = tape.val(out).shape
        if "w" not in weights:
            weights["w"] = rng.uniform(-1.0, 1.0, size=shape)
        loss = tape.sum_all(tape.mul(out, tape.const(weights["w"])))
        return tape, loss

    return build


LOG_PRIORS3 = np.log([0.2, 0.5, 0.3])


# One entry per op: (name, param arrays, graph builder).
def _op_cases():
    rng = np.random.default_rng(123)
    u = lambda *shape: rng.uniform(-2.0, 2.0, size=shape)
    pos = lambda *shape: rng.uniform(0.5, 2.0, size=shape)
    labels5 = np.array([0, 2, 1, 2, 0])
    cases = [
        ("affine_vec", {"W": u(3, 2), "b": u(3), "x": u(2)},
         lambda t: t.affine(t.param("x"), t.param("W"), t.param("b"))),
        ("affine_batch", {"W": u(3, 2), "b": u(3), "x": u(5, 2)},
         lambda t: t.affine(t.param("x"), t.param("W"), t.param("b"))),
        ("relu", {"x": u(7)}, lambda t: t.activation(t.param("x"), "relu")),
        ("softplus", {"x": u(7)}, lambda t: t.activation(t.param("x"), "softplus")),
        ("tanh", {"x": u(7)}, lambda t: t.activation(t.param("x"), "tanh")),
        ("add", {"a": u(4), "b": u(4)}, lambda t: t.add(t.param("a"), t.param("b"))),
        ("sub", {"a": u(4), "b": u(4)}, lambda t: t.sub(t.param("a"), t.param("b"))),
        ("mul", {"a": u(4), "b": u(4)}, lambda t: t.mul(t.param("a"), t.param("b"))),
        ("add_n", {"a": u(4), "b": u(4), "c": u(4)},
         lambda t: t.add_n([t.param("a"), t.param("b"), t.param("c")])),
        ("scale", {"x": u(4)}, lambda t: t.scale(t.param("x"), -1.7)),
        ("add_const", {"x": u(4)}, lambda t: t.add_const(t.param("x"), 0.9)),
        ("exp", {"x": u(4)}, lambda t: t.exp(t.param("x"))),
        ("log", {"x": pos(4)}, lambda t: t.log(t.param("x"))),
        ("sum_all", {"x": u(3, 2)}, lambda t: t.sum_all(t.param("x"))),
        ("mean_all", {"x": u(3, 2)}, lambda t: t.mean_all(t.param("x"))),
        ("bcast", {"s": u()}, lambda t: t.bcast(t.param("s"), (6,))),
        ("mul_scalar", {"x": u(5), "s": u()}, lambda t: t.mul_scalar(t.param("x"), t.param("s"))),
        ("take", {"v": u(4)}, lambda t: t.take(t.param("v"), labels5[:4])),
        ("take_rows", {"m": u(3, 2)}, lambda t: t.take_rows(t.param("m"), labels5)),
        ("row_sum", {"x": u(4, 3)}, lambda t: t.row_sum(t.param("x"))),
        ("pairwise_sqdist", {"t": u(4, 2), "m": u(3, 2)},
         lambda t: t.pairwise_sqdist(t.param("t"), t.param("m"))),
        ("mul_rows", {"x": u(4, 3), "w": u(3)}, lambda t: t.mul_rows(t.param("x"), t.param("w"))),
        ("add_rows", {"x": u(4, 3), "c": u(3)}, lambda t: t.add_rows(t.param("x"), t.param("c"))),
        ("logsumexp_rows", {"s": u(4, 3)}, lambda t: t.logsumexp_rows(t.param("s"))),
        ("pick", {"s": u(5, 3)}, lambda t: t.pick(t.param("s"), labels5)),
        ("naive_bayes_scores", {"t": u(4, 2), "mu": u(3, 2), "ls": u(3)},
         lambda t: t.naive_bayes_scores(t.param("t"), t.param("mu"), t.param("ls"), LOG_PRIORS3)),
        ("softmax_nll", {"s": u(5, 3)}, lambda t: t.softmax_nll(t.param("s"), labels5)),
    ]
    return cases


@pytest.mark.parametrize("name,params,builder", _op_cases(), ids=lambda c: c if isinstance(c, str) else "")
def test_primitive_op_gradients_match_central_differences(name, params, builder):
    """The reference engine's ops, one by one."""
    store = ParamStore(list(params.items()))
    lossfn = _loss_through(builder, params, seed=zlib.crc32(name.encode()))
    tape, out = lossfn(store)
    analytic = tape.backward(out)

    def f(theta):
        probe = store.copy()
        probe.values[:] = theta
        t2, o2 = lossfn(probe)
        return float(t2.val(o2))

    numeric = central_difference(f, store.values, eps=1e-5)
    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    assert rel.max() < 1e-5, f"{name}: max rel {rel.max():.2e}"


def _loss_case(seed, dims=(3, 5, 2), activation="softplus", head="naive_bayes", learned=True, draws=2,
               beta_prime=0.8, batch=6):
    """Random slices and the loss over them; ``learned`` False fixes the log-variance and the class sigmas."""
    rng = np.random.default_rng(seed)
    u = lambda *shape: rng.uniform(-2.0, 2.0, size=shape)
    d = dims[-1]
    slices = []
    for l in range(len(dims) - 1):
        slices += [(f"W{l}", u(dims[l + 1], dims[l])), (f"b{l}", u(dims[l + 1]))]
    weights = tuple(name for name, _ in slices)
    slices.append(("mu", u(3, d)))
    if learned:
        slices += [("ls", rng.uniform(-0.5, 0.5, 3)), ("le", u())]
    if head == "softmax":
        slices += [("hW", u(3, d)), ("hb", u(3))]
    ls = "ls" if learned else None
    spec = LossSpec(
        x=u(batch, dims[0]), labels=rng.integers(0, 3, batch), noise=rng.standard_normal((draws, batch, d)),
        weights=weights, activation=activation, sigma2=0.5, log_eta2="le" if learned else None,
        score_rule=("softmax", "hW", "hb", None) if head == "softmax" else ("naive_bayes", "mu", ls, LOG_PRIORS3),
        mu="mu", log_sigma=ls, beta_prime=beta_prime,
    )
    return ParamStore(slices), spec


# One entry per op of the library tape, as the loss that leans on it: (name, loss-case arguments).
# With beta' = 0 the gradient is the cross-entropy's alone; with the softmax readout the
# surrogate slices take adjoints from the KL rows alone.
_TAPE_CASES = [
    ("mlp_linear", {"dims": (3, 2), "activation": "relu"}),
    ("mlp_relu", {"dims": (3, 4, 2), "activation": "relu"}),
    ("mlp_softplus", {"dims": (3, 4, 3, 2), "activation": "softplus"}),
    ("mlp_tanh", {"dims": (3, 4, 2), "activation": "tanh"}),
    ("mc_cross_entropy_softmax", {"head": "softmax", "beta_prime": 0.0}),
    ("mc_cross_entropy_naive_bayes", {"head": "naive_bayes", "beta_prime": 0.0}),
    ("kl_to_surrogate_rows", {"head": "softmax", "beta_prime": 2.0}),
]


@pytest.mark.parametrize("name,kwargs", _TAPE_CASES, ids=[name for name, _ in _TAPE_CASES])
def test_tape_gradients_match_central_differences(name, kwargs):
    store, spec = _loss_case(zlib.crc32(name.encode()), **kwargs)
    tape, _ = fused_loss_alone(store, spec)
    analytic = tape.backward()[0]

    def f(theta):
        probe = store.copy()
        probe.values[:] = theta
        return float(fused_loss_alone(probe, spec)[1]["total"])

    numeric = central_difference(f, store.values, eps=1e-5)
    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    assert rel.max() < 1e-5, f"{name}: max rel {rel.max():.2e}"


def _two_layer_loss(x, labels):
    def lossfn(store):
        tape = ChainTape(store)
        h = tape.affine(tape.const(x), tape.param("W0"), tape.param("b0"))
        h = tape.activation(h, "softplus")
        scores = tape.affine(h, tape.param("W1"), tape.param("b1"))
        nll = tape.sub(tape.logsumexp_rows(scores), tape.pick(scores, labels))
        return tape, tape.mean_all(nll)

    return lossfn


def test_two_layer_softplus_network_matches_central_differences():
    rng = np.random.default_rng(11)
    store = ParamStore(
        [
            ("W0", rng.uniform(-2.0, 2.0, size=(4, 3))),
            ("b0", rng.uniform(-2.0, 2.0, size=4)),
            ("W1", rng.uniform(-2.0, 2.0, size=(2, 4))),
            ("b1", rng.uniform(-2.0, 2.0, size=2)),
        ]
    )
    x = rng.uniform(-2.0, 2.0, size=(6, 3))
    labels = rng.integers(0, 2, size=6)
    lossfn = _two_layer_loss(x, labels)
    tape, out = lossfn(store)
    analytic = tape.backward(out)

    def f(theta):
        probe = store.copy()
        probe.values[:] = theta
        t2, o2 = lossfn(probe)
        return float(t2.val(o2))

    numeric = central_difference(f, store.values, eps=1e-5)
    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    assert rel.max() < 1e-5


def test_gradient_is_linear_in_the_loss():
    rng = np.random.default_rng(3)
    store = ParamStore([("w", rng.uniform(-2.0, 2.0, size=5))])
    tape = ChainTape(store)
    w = tape.param("w")
    l1 = tape.sum_all(tape.mul(w, w))
    l2 = tape.sum_all(tape.mul(w, tape.const(rng.uniform(-1.0, 1.0, size=5))))
    a, b = 0.37, -2.5
    combined = tape.add(tape.scale(l1, a), tape.scale(l2, b))
    g1 = tape.backward(l1)
    g2 = tape.backward(l2)
    gc = tape.backward(combined)
    np.testing.assert_allclose(gc, a * g1 + b * g2, atol=1e-12, rtol=0)


def _fused_and_chain(params, fused, chain, seed):
    """Values and gradients of one reference-engine op built fused and as its primitive chain."""
    store = ParamStore(list(params.items()))
    out = []
    for build in (fused, chain):
        tape = ChainTape(store)
        node = build(tape)
        weights = np.random.default_rng(seed).uniform(-1.0, 1.0, size=tape.val(node).shape)
        loss = tape.sum_all(tape.mul(node, tape.const(weights)))
        out.append((tape.val(node), tape.backward(loss), len(tape)))
    return out


def _tape_and_chain(store, spec):
    """Values by loss part, gradient and length of the loss on the library tape and as its primitive chain."""
    tape, values = fused_loss_alone(store, spec)
    chain = ChainTape(store)
    nodes = chain_loss(chain, spec)
    chain_values = {part: chain.val(node) for part, node in nodes.items()}
    return (values, tape.backward()[0], len(tape)), (chain_values, chain.backward(nodes["total"]), len(chain))


class TestFusedOpsMatchChains:
    """Each op of the library tape, and each fused node of the reference engine, gives its primitive chain's
    values exactly; the tape's whole-loss gradient is the chain's, bit for bit."""

    labels = np.array([2, 0, 1, 2, 2, 0])

    def _params(self, seed, **shapes):
        rng = np.random.default_rng(seed)
        return {name: rng.uniform(-2.0, 2.0, size=shape) for name, shape in shapes.items()}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kl_to_surrogate_rows(self, seed):
        store, spec = _loss_case(seed, head="softmax", dims=(3, 3), beta_prime=1.7)
        (fv, fg, fn), (cv, cg, cn) = _tape_and_chain(store, spec)
        assert np.array_equal(fv["kl_rows"], cv["kl_rows"]) and fv["kl"] == cv["kl"]
        assert np.array_equal(fg, cg)
        assert fn < cn

    @pytest.mark.parametrize("learned_sigma", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_naive_bayes_scores(self, seed, learned_sigma):
        params = self._params(seed, t=(6, 3), mu=(3, 3), ls=(3,))
        if not learned_sigma:
            params["ls"] = np.zeros(3)

        def chain(t):
            log_var = t.scale(t.param("ls"), 2.0) if learned_sigma else t.const(np.zeros(3))
            return chain_naive_bayes_scores(t, t.param("t"), t.param("mu"), log_var, LOG_PRIORS3)

        def fused(t):
            log_sigma = t.param("ls") if learned_sigma else t.const(np.zeros(3))
            return t.naive_bayes_scores(t.param("t"), t.param("mu"), log_sigma, LOG_PRIORS3)

        (fv, fg, fn), (cv, cg, cn) = _fused_and_chain(params, fused, chain, seed)
        assert np.array_equal(fv, cv) and np.array_equal(fg, cg)
        assert fn < cn

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_softmax_nll(self, seed):
        params = self._params(seed, s=(6, 3))
        (fv, fg, fn), (cv, cg, cn) = _fused_and_chain(
            params, lambda t: t.softmax_nll(t.param("s"), self.labels),
            lambda t: chain_softmax_nll(t, t.param("s"), self.labels), seed,
        )
        assert np.array_equal(fv, cv) and np.array_equal(fg, cg)
        assert fn < cn

    @pytest.mark.parametrize("activation", ["relu", "softplus", "tanh"])
    @pytest.mark.parametrize("hidden", [0, 1, 2, 3])
    def test_mlp(self, hidden, activation):
        dims = [3, 5, 4, 6][: hidden + 1] + [2]
        store, spec = _loss_case(hidden, dims=dims, activation=activation)
        (fv, fg, fn), (cv, cg, cn) = _tape_and_chain(store, spec)
        assert np.array_equal(fv["means"], cv["means"]) and np.array_equal(fg, cg)
        assert fn < cn

    @pytest.mark.parametrize("head", ["softmax", "naive_bayes"])
    @pytest.mark.parametrize("draws", [1, 3])
    @pytest.mark.parametrize("learned", [True, False])
    def test_mc_cross_entropy(self, head, draws, learned):
        """All S draws in one op; ``learned`` False fixes the log-variance and the class sigmas."""
        store, spec = _loss_case(draws, head=head, draws=draws, learned=learned)
        (fv, fg, fn), (cv, cg, cn) = _tape_and_chain(store, spec)
        assert fv["log_var"] == cv["log_var"] and fv["ce"] == cv["ce"] and fv["total"] == cv["total"]
        assert np.array_equal(fg, cg)
        assert fn < cn

    def test_shape_mismatch_rejected(self):
        store = ParamStore([("mu", np.zeros((3, 3))), ("ls", np.zeros(3)), ("p", np.zeros((3, 2)))])
        tape = Tape(stack_of_one(store))
        m, v, labels = np.zeros((4, 2)), np.zeros(1), np.zeros((1, 4), dtype=int)
        with pytest.raises(ValueError, match=r"^kl_to_surrogate_rows: means\(1, 4, 2\) .* do not agree$"):
            tape.kl_to_surrogate_rows(m[None], v, "mu", "ls", labels)
        chain = ChainTape(store)
        with pytest.raises(ValueError, match=r"^naive_bayes_scores: t\(4, 2\) mu\(3, 3\) .* do not agree$"):
            chain.naive_bayes_scores(chain.const(m), chain.param("mu"), chain.param("ls"), LOG_PRIORS3)
        with pytest.raises(ValueError, match=r"^softmax_nll: need \(B,K\) scores and \(B,\) labels$"):
            chain.softmax_nll(chain.param("mu"), labels[0])
        with pytest.raises(ValueError, match=r"^mlp layer 0: x\(1, 4, 2\) W\(1, 3, 3\) b\(1, 3\) do not agree$"):
            tape.mlp(np.zeros((1, 4, 2)), ["mu", "ls"], "relu")
        with pytest.raises(ValueError, match=r"^mc_cross_entropy: .* noise\(1, 1, 4, 3\) .* do not agree$"):
            tape.mc_cross_entropy(m[None], v, np.zeros((1, 1, 4, 3)), labels, "softmax", "mu", "ls")
        with pytest.raises(ValueError, match=r"^mc_cross_entropy: log_priors\(2,\) for 3 classes$"):
            tape.mc_cross_entropy(m[None], v, np.zeros((1, 1, 4, 2)), labels, "naive_bayes", "p", "ls",
                                  LOG_PRIORS3[:2])
        with pytest.raises(ValueError, match="unknown score head"):
            tape.mc_cross_entropy(m[None], v, np.zeros((1, 1, 4, 2)), labels, "probit", "p", "ls")


def test_dead_nodes_are_not_visited():
    """A node that depends on no parameter gets no backward call."""
    store = ParamStore([("w", np.array([0.5, 1.5]))])
    tape = ChainTape(store)
    dead = tape.exp(tape.const(np.array(0.3)))
    out = tape.sum_all(tape.mul_scalar(tape.param("w"), dead))
    calls = []
    tape._rules = {**tape._rules, "exp": lambda *args: calls.append(args)}
    grad = tape.backward(out)
    assert calls == []
    np.testing.assert_array_equal(grad, np.full(2, tape.val(dead)))


def test_tape_reads_parameters_as_views_of_the_store():
    store = ParamStore([("W", np.ones((2, 3))), ("b", np.arange(2.0))])
    tape = Tape(stack_of_one(store))
    tape.mlp(np.ones((1, 4, 3)), ("W", "b"), "relu")
    weights = tape._mlp[1]
    assert all(np.shares_memory(w, store.values) for w in weights)
    assert [w.shape for w in weights] == [(1, 2, 3), (1, 2)]


def test_softplus_derivative_matches_the_two_branch_sigmoid():
    """exp(-|x|) from the forward pass gives the bits of 1/(1+e^-x) and e^x/(1+e^x)."""
    rng = np.random.default_rng(2)
    edges = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 36.7, -36.7, 709.8, -709.8, 745.2, -745.2,
             np.inf, -np.inf]
    x = np.concatenate([np.linspace(-800.0, 800.0, 4001), edges, rng.standard_normal(2000) * 30.0])
    with np.errstate(over="ignore", invalid="ignore"):
        ex = np.exp(x)
        reference = np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), ex / (1.0 + ex))
    out, e = _activate(x, "softplus")
    assert np.array_equal(_act_grad("softplus", np.ones_like(x), x, out, e), reference)


@pytest.mark.parametrize("kind", ["relu", "softplus", "tanh"])
def test_act_grad_equals_the_where_formula(kind):
    """np.maximum(e, x >= 0) is np.where(x >= 0, 1.0, e) bit for bit, since e = e^(-|x|) lies in [0, 1]."""
    rng = np.random.default_rng(8)
    edges = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 36.7, -36.7, 745.2, -745.2, np.inf, -np.inf, np.nan]
    x = np.concatenate([rng.standard_normal(100_000) * 10.0 ** rng.uniform(-3.0, 3.0, 100_000), edges])
    g = np.concatenate([rng.standard_normal(100_000), np.ones(len(edges))])
    out, e = _activate(x, kind)
    with np.errstate(invalid="ignore"):
        ours, theirs = _act_grad(kind, g, x, out, e), where_act_grad(kind, g, x, out, e)
    assert ours.tobytes() == theirs.tobytes()


def test_adjoints_are_never_written_in_place():
    """A node's adjoint may be shared with another node: backward must not mutate it."""
    store = ParamStore([("w", np.array([0.5, -1.5, 2.0]))])
    tape = ChainTape(store)
    w = tape.param("w")
    a = tape.add(w, w)
    b = tape.add_n([a, a, tape.mul(w, w)])
    out = tape.sum_all(tape.mul(b, b))
    g = tape.backward(out)
    wv = store.get("w")
    np.testing.assert_allclose(g, 2.0 * (4.0 * wv + wv * wv) * (4.0 + 2.0 * wv), rtol=1e-15)


def _chain_lossfn(build):
    """A grad_check loss function over a reference-engine graph: ``build(tape)`` returns the scalar node."""

    def lossfn(store):
        tape = ChainTape(store)
        out = build(tape)
        return tape.val(out), lambda: tape.backward(out)

    return per_row(lossfn)


class TestGradCheck:
    def test_quadratic_loss_is_exact(self):
        rng = np.random.default_rng(9)
        store = ParamStore([("theta", rng.uniform(-2.0, 2.0, size=6))])
        lossfn = _chain_lossfn(lambda t: t.scale(t.sum_all(t.mul(t.param("theta"), t.param("theta"))), 0.5))
        report = grad_check(lossfn, store, eps=1e-5, tol=1e-9)
        assert report.passed
        assert report.max_rel_error < 1e-9

    def test_zero_eps_rejected(self):
        store = ParamStore([("w", np.ones(1))])
        with pytest.raises(ValueError):
            grad_check(_chain_lossfn(lambda t: t.sum_all(t.param("w"))), store, eps=0.0, tol=1e-5)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -1e-5])
    def test_eps_that_is_not_positive_and_finite_rejected_naming_it(self, eps):
        store = ParamStore([("w", np.ones(1))])
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            grad_check(_chain_lossfn(lambda t: t.sum_all(t.param("w"))), store, eps=eps, tol=1e-5)

    def test_nonfinite_loss_raises(self):
        store = ParamStore([("w", np.array([0.0]))])
        with pytest.raises(NonFiniteError):
            grad_check(_chain_lossfn(lambda t: t.sum_all(t.log(t.param("w")))), store, eps=1e-5, tol=1e-5)

    def test_restores_parameters_after_probing(self):
        store = ParamStore([("w", np.array([1.0, -2.0])), ("v", np.array([0.5]))])
        before = store.values.copy()
        lossfn = _chain_lossfn(lambda t: t.sum_all(t.mul(t.param("w"), t.param("w"))))
        report = grad_check(lossfn, store, eps=1e-6, tol=1e-6)
        np.testing.assert_array_equal(store.values, before)
        assert report.worst_name in ("w", "v")

    def test_probes_take_no_gradient(self):
        """One stack-of-one forward and one gradient at the base point, and 2 * size stacked probe rows; the loss passes."""
        store, spec = _loss_case(4, head="softmax")
        stacks, gradients = [], []

        def lossfn(s):
            tape, values = fused_loss(s, spec)
            stacks.append(s.values.shape[:-1])
            backward = tape.backward

            def gradient():
                gradients.append(1)
                return backward()

            tape.backward = gradient
            return values["total"], tape

        report = grad_check(lossfn, store, eps=1e-5, tol=1e-5)
        assert report.passed
        assert stacks[0] == (1,) and sum(shape[0] for shape in stacks[1:]) == 2 * store.size
        assert len(gradients) == 1

    def test_chunks_that_do_not_divide_the_probes(self, monkeypatch):
        """Five probe rows per call, and 2 * size is no multiple of 5: both gradients equal one probe at a time."""
        store, spec = _loss_case(5)
        stacks = []

        def lossfn(s):
            tape, values = fused_loss(s, spec)
            stacks.append(s.values.shape[:-1])
            return values["total"], tape

        monkeypatch.setattr(diffcore, "PROBE_STACK_VALUES", 5 * fused_loss_alone(store, spec)[0].width + 3)
        probes = 2 * store.size
        assert probes % 5
        report = grad_check(lossfn, store, eps=1e-5, tol=1e-5)
        assert stacks == [(1,)] + [(5,)] * (probes // 5) + [(probes % 5,)]
        analytic, numeric = loop_grad_check(lossfn, store, 1e-5)
        assert np.array_equal(report.analytic, analytic) and np.array_equal(report.numeric, numeric)

    def test_first_nonfinite_coordinate_is_named(self, monkeypatch):
        """Coordinate 4's up probe is non-finite in the first call; coordinate 1's down probe, later, is named."""
        store = ParamStore([("a", np.array([1.0, 1e-5, 2.0])), ("b", np.array([0.5, 709.78271289338, -1.0]))])
        lossfn = _chain_lossfn(lambda t: t.add(t.sum_all(t.log(t.param("a"))), t.sum_all(t.exp(t.param("b")))))
        monkeypatch.setattr(diffcore, "PROBE_STACK_VALUES", 5)  # width 1: five probe rows per call
        with pytest.raises(NonFiniteError) as stacked:
            grad_check(lossfn, store, eps=1e-5, tol=1e-5)
        with pytest.raises(NonFiniteError) as looped:
            loop_grad_check(lossfn, store.copy(), 1e-5)
        assert str(stacked.value) == str(looped.value) == "loss non-finite while probing coordinate 1"

    def test_store_is_never_written(self):
        store, spec = _loss_case(6, head="softmax")
        store.values.flags.writeable = False

        def lossfn(s):
            tape, values = fused_loss(s, spec)
            return values["total"], tape

        assert grad_check(lossfn, store, eps=1e-5, tol=1e-5).passed


class TestStackedTape:
    @pytest.mark.parametrize("names", [[], ["W"], ["W", "b", "W"]])
    def test_mlp_takes_weight_and_bias_pairs(self, names):
        tape = Tape(stack_of_one(ParamStore([("W", np.zeros((2, 2))), ("b", np.zeros(2))])))
        with pytest.raises(ValueError, match="mlp needs \\(W, b\\) slice-name pairs"):
            tape.mlp(np.zeros((1, 3, 2)), names, "softplus")

    def test_rows_are_the_losses_of_each_vector_alone(self):
        store, spec = _loss_case(3)
        rows = store.values + np.random.default_rng(0).uniform(-0.1, 0.1, (4, store.size))
        tape, values = fused_loss(store.with_values(rows), spec)
        assert values["total"].shape == (4,) and values["kl_rows"].shape == (4, spec.labels.size)
        for i in range(4):
            alone = fused_loss_alone(store.with_values(rows[i]), spec)[1]
            assert all(np.array_equal(values[part][i], alone[part]) for part in ("total", "ce", "kl", "kl_rows"))

    @pytest.mark.parametrize("stack", [1, 3])
    @pytest.mark.parametrize("learned", [True, False])
    def test_every_input_has_the_stack_axis(self, stack, learned):
        """Each op rejects the form of an input that all rows would share; a fixed log-variance is (P,) too."""
        store, spec = _loss_case(8, learned=learned)
        stacked = store.with_values(np.repeat(store.values[None], stack, axis=0))
        x, labels, noise, beta_prime = shared_by_rows(stacked, spec.x, spec.labels, spec.noise, spec.beta_prime)
        tape = Tape(stacked)
        with pytest.raises(ValueError, match="mlp layer 0"):
            tape.mlp(spec.x, spec.weights, spec.activation)
        means = tape.mlp(x, spec.weights, spec.activation)
        log_var = tape.log_var(spec.sigma2, spec.log_eta2)
        assert log_var.shape == (stack,)
        if not learned:
            assert log_var.tolist() == [math.log(spec.sigma2)] * stack
        for shared_noise, shared_labels in ((spec.noise, labels), (noise, spec.labels)):
            with pytest.raises(ValueError, match="mc_cross_entropy"):
                tape.mc_cross_entropy(means, log_var, shared_noise, shared_labels, *spec.score_rule)
        ce = tape.mc_cross_entropy(means, log_var, noise, labels, *spec.score_rule)
        with pytest.raises(ValueError, match="kl_to_surrogate_rows"):
            tape.kl_to_surrogate_rows(means, log_var, spec.mu, spec.log_sigma, spec.labels)
        kl_rows = tape.kl_to_surrogate_rows(means, log_var, spec.mu, spec.log_sigma, labels)
        with pytest.raises(ValueError, match="total"):
            tape.total(ce, kl_rows, spec.beta_prime)
        assert tape.total(ce, kl_rows, beta_prime)[0].shape == (stack,)
        assert len(tape) == 4 + learned

    def test_only_a_stack_of_one_or_more_vectors_is_taken(self):
        store, _ = _loss_case(4)
        for values in (store.values, np.empty((0, store.size)), store.values[None, None]):
            with pytest.raises(ValueError, match=r"\(P, size\) stacked store"):
                Tape(store.with_values(values))
        assert Tape(stack_of_one(store)).store.values.shape == (1, store.size)
