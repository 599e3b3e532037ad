"""Tape engine: forward values, reverse-mode gradients, and the checker itself."""

import math

import numpy as np
import pytest

from cib.diffcore import NonFiniteError, ParamStore, ShapeError, Tape, grad_check
from helpers import (
    central_difference,
    chain_kl_to_surrogate_rows,
    chain_naive_bayes_scores,
    chain_softmax_nll,
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

    def test_set_checks_shape_and_finiteness(self):
        store = ParamStore([("w", np.zeros(3))])
        with pytest.raises(ShapeError):
            store.set("w", np.zeros(4))
        with pytest.raises(ValueError):
            store.set("w", np.array([1.0, np.nan, 0.0]))

    def test_rejects_duplicate_names_and_nonfinite_init(self):
        with pytest.raises(ValueError):
            ParamStore([("a", np.zeros(1)), ("a", np.zeros(1))])
        with pytest.raises(ValueError):
            ParamStore([("a", np.array([np.inf]))])


class TestAffine:
    def test_identity_weights_pass_input_through(self):
        store = ParamStore([("W", np.eye(2)), ("b", np.zeros(2))])
        tape = Tape(store)
        out = tape.affine(tape.const([3.0, 4.0]), tape.param("W"), tape.param("b"))
        np.testing.assert_array_equal(tape.val(out), [3.0, 4.0])

    def test_zero_weights_return_bias(self):
        store = ParamStore([("W", np.zeros((2, 3))), ("b", np.array([1.0, 2.0]))])
        tape = Tape(store)
        out = tape.affine(tape.const([5.0, -1.0, 7.0]), tape.param("W"), tape.param("b"))
        np.testing.assert_array_equal(tape.val(out), [1.0, 2.0])

    def test_dimension_mismatch_names_the_layer(self):
        store = ParamStore([("W", np.zeros((2, 3))), ("b", np.zeros(2))])
        tape = Tape(store)
        with pytest.raises(ShapeError, match="enc.layer0"):
            tape.affine(tape.const([1.0, 2.0]), tape.param("W"), tape.param("b"), label="enc.layer0")

    def test_gradient_wrt_weight_matrix_matches_central_differences(self):
        rng = np.random.default_rng(7)
        w0 = rng.uniform(-2.0, 2.0, size=(3, 2))
        b0 = rng.uniform(-2.0, 2.0, size=3)
        x = rng.uniform(-2.0, 2.0, size=2)
        store = ParamStore([("W", w0), ("b", b0)])

        tape = Tape(store)
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
        tape = Tape()
        out = tape.activation(tape.const(np.array(0.0)), "softplus")
        assert tape.val(out) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_relu_values(self):
        tape = Tape()
        out = tape.activation(tape.const([-1.0, 2.0]), "relu")
        np.testing.assert_array_equal(tape.val(out), [0.0, 2.0])

    def test_softplus_derivative_at_zero_is_half(self):
        store = ParamStore([("x", np.array(0.0))])
        tape = Tape(store)
        out = tape.activation(tape.param("x"), "softplus")
        grad = tape.backward(out)
        assert grad[0] == pytest.approx(0.5, abs=1e-15)

    def test_softplus_is_stable_for_large_inputs(self):
        tape = Tape()
        out = tape.activation(tape.const([100.0, -100.0]), "softplus")
        np.testing.assert_allclose(tape.val(out), [100.0, 0.0], atol=1e-12)

    def test_unknown_kind_rejected(self):
        tape = Tape()
        with pytest.raises(ValueError):
            tape.activation(tape.const([1.0]), "sigmoid")


class TestBackwardBasics:
    def test_constant_output_has_zero_gradient(self):
        store = ParamStore([("w", np.ones(3))])
        tape = Tape(store)
        tape.param("w")
        out = tape.const(np.array(5.0))
        np.testing.assert_array_equal(tape.backward(out), np.zeros(3))

    def test_single_coordinate_output_gives_unit_vector(self):
        store = ParamStore([("w", np.arange(4.0))])
        tape = Tape(store)
        out = tape.sum_all(tape.take(tape.param("w"), np.array([2])))
        grad = tape.backward(out)
        np.testing.assert_array_equal(grad, [0.0, 0.0, 1.0, 0.0])

    def test_non_scalar_output_rejected(self):
        store = ParamStore([("w", np.ones(3))])
        tape = Tape(store)
        w = tape.param("w")
        with pytest.raises(ShapeError):
            tape.backward(w)

    def test_seed_scales_gradient(self):
        store = ParamStore([("w", np.array([2.0]))])
        tape = Tape(store)
        out = tape.sum_all(tape.mul(tape.param("w"), tape.param("w")))
        np.testing.assert_allclose(tape.backward(out, seed=3.0), 3.0 * tape.backward(out))


def _loss_through(op_builder, params, seed):
    """Scalar loss: weighted sum of the op output, for FD comparison."""
    rng = np.random.default_rng(seed)
    weights = {}

    def build(store):
        tape = Tape(store)
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
        ("kl_to_surrogate_rows", {"m": u(5, 2), "v": u(), "mu": u(3, 2), "ls": u(3)},
         lambda t: t.kl_to_surrogate_rows(t.param("m"), t.param("v"), t.param("mu"), t.param("ls"), labels5)),
        ("naive_bayes_scores", {"t": u(4, 2), "mu": u(3, 2), "ls": u(3)},
         lambda t: t.naive_bayes_scores(t.param("t"), t.param("mu"), t.param("ls"), LOG_PRIORS3)),
        ("softmax_nll", {"s": u(5, 3)}, lambda t: t.softmax_nll(t.param("s"), labels5)),
    ]
    return cases


@pytest.mark.parametrize("name,params,builder", _op_cases(), ids=lambda c: c if isinstance(c, str) else "")
def test_primitive_op_gradients_match_central_differences(name, params, builder):
    store = ParamStore(list(params.items()))
    lossfn = _loss_through(builder, params, seed=hash(name) % (2**32))
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


def _two_layer_loss(x, labels):
    def lossfn(store):
        tape = Tape(store)
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
    tape = Tape(store)
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
    """Values and gradients of one op built fused and as its primitive chain."""
    store = ParamStore(list(params.items()))
    out = []
    for build in (fused, chain):
        tape = Tape(store)
        node = build(tape)
        weights = np.random.default_rng(seed).uniform(-1.0, 1.0, size=tape.val(node).shape)
        loss = tape.sum_all(tape.mul(node, tape.const(weights)))
        out.append((tape.val(node), tape.backward(loss), len(tape)))
    return out


class TestFusedOpsMatchChains:
    """Each fused op gives its primitive chain's values and gradients exactly."""

    labels = np.array([2, 0, 1, 2, 2, 0])

    def _params(self, seed, **shapes):
        rng = np.random.default_rng(seed)
        return {name: rng.uniform(-2.0, 2.0, size=shape) for name, shape in shapes.items()}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_kl_to_surrogate_rows(self, seed):
        params = self._params(seed, m=(6, 3), v=(), mu=(3, 3), ls=(3,))
        args = lambda t: (t.param("m"), t.param("v"), t.param("mu"), t.param("ls"), self.labels)
        (fv, fg, fn), (cv, cg, cn) = _fused_and_chain(
            params, lambda t: t.kl_to_surrogate_rows(*args(t)),
            lambda t: chain_kl_to_surrogate_rows(t, *args(t)), seed,
        )
        assert np.array_equal(fv, cv) and np.array_equal(fg, cg)
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

    def test_shape_mismatch_rejected(self):
        store = ParamStore([("m", np.zeros((4, 2))), ("v", np.zeros(())), ("mu", np.zeros((3, 3))),
                            ("ls", np.zeros(3))])
        tape = Tape(store)
        m, v, mu, ls = (tape.param(n) for n in ("m", "v", "mu", "ls"))
        with pytest.raises(ShapeError):
            tape.kl_to_surrogate_rows(m, v, mu, ls, np.zeros(4, dtype=int))
        with pytest.raises(ShapeError):
            tape.naive_bayes_scores(m, mu, ls, LOG_PRIORS3)
        with pytest.raises(ShapeError):
            tape.softmax_nll(mu, np.zeros(4, dtype=int))


def test_adjoints_are_never_written_in_place():
    """A node's adjoint may be shared with another node: backward must not mutate it."""
    store = ParamStore([("w", np.array([0.5, -1.5, 2.0]))])
    tape = Tape(store)
    w = tape.param("w")
    a = tape.add(w, w)
    b = tape.add_n([a, a, tape.mul(w, w)])
    out = tape.sum_all(tape.mul(b, b))
    g = tape.backward(out)
    wv = store.get("w")
    np.testing.assert_allclose(g, 2.0 * (4.0 * wv + wv * wv) * (4.0 + 2.0 * wv), rtol=1e-15)


class TestGradCheck:
    def test_quadratic_loss_is_exact(self):
        rng = np.random.default_rng(9)
        store = ParamStore([("theta", rng.uniform(-2.0, 2.0, size=6))])

        def lossfn(s):
            tape = Tape(s)
            th = tape.param("theta")
            return tape, tape.scale(tape.sum_all(tape.mul(th, th)), 0.5)

        report = grad_check(lossfn, store, eps=1e-5, tol=1e-9)
        assert report.passed
        assert report.max_rel_error < 1e-9

    def test_zero_eps_rejected(self):
        store = ParamStore([("w", np.ones(1))])
        with pytest.raises(ValueError):
            grad_check(lambda s: (_t := Tape(s), _t.sum_all(_t.param("w")))[0:2], store, eps=0.0, tol=1e-5)

    def test_nonfinite_loss_raises(self):
        store = ParamStore([("w", np.array([0.0]))])

        def lossfn(s):
            tape = Tape(s)
            return tape, tape.sum_all(tape.log(tape.param("w")))

        with pytest.raises(NonFiniteError):
            grad_check(lossfn, store, eps=1e-5, tol=1e-5)

    def test_restores_parameters_after_probing(self):
        store = ParamStore([("w", np.array([1.0, -2.0])), ("v", np.array([0.5]))])
        before = store.values.copy()

        def lossfn(s):
            tape = Tape(s)
            return tape, tape.sum_all(tape.mul(tape.param("w"), tape.param("w")))

        report = grad_check(lossfn, store, eps=1e-6, tol=1e-6)
        np.testing.assert_array_equal(store.values, before)
        assert report.worst_name in ("w", "v")
