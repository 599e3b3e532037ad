"""Encoder, decoder heads, training determinism, evaluation, and sweeps."""

import collections
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cib import data_io, diffcore, estimators, gaussians, model, objectives
from cib.data_io import Dataset, validate_config
from cib.diffcore import NonFiniteError, Tape, grad_check
from helpers import (
    ChainTape,
    chain_loss_graph,
    per_step_batches,
    reference_diagnose_nonfinite,
    reference_loss_terms,
    shared_by_rows,
    stack_of_one,
)
from cib.model import (
    NonFiniteLossError,
    build_state,
    derive_seed,
    evaluate,
    make_loss_fn,
    sweep,
    train,
)


def _config(**overrides):
    cfg = {
        "dataset": {"kind": "gmm", "classes": 2, "dim": 2, "per_class": 60, "sep": 4.0, "seed": 7},
        "encoder": {"layer_dims": [2, 4, 2]},
        "decoder": {"variant": "naive_bayes"},
        "loss": {"beta_prime": 1.0},
        "optim": {"steps": 40, "batch": 16, "log_every": 20},
        "seed": 7,
    }
    for key, value in overrides.items():
        cfg[key] = value
    return validate_config(cfg)


def _state(cfg=None, seed=0, priors=(0.5, 0.5)):
    cfg = cfg or _config()
    return build_state(cfg, np.asarray(priors), np.random.default_rng(seed))


class TestEncode:
    def test_zero_weights_return_final_bias(self):
        state = _state()
        for name in ("enc.W0", "enc.W1"):
            state.store.set(name, np.zeros(state.store.spec(name).shape))
        state.store.set("enc.b1", np.array([3.0, -1.0]))
        x = np.array([[0.0, 0.0], [5.0, -2.0]])
        np.testing.assert_allclose(state.encode_batch(x), [[3.0, -1.0], [3.0, -1.0]], atol=1e-15)

    def test_single_identity_layer_passes_input(self):
        cfg = _config(encoder={"layer_dims": [2, 2]})
        state = build_state(cfg, np.array([0.5, 0.5]))
        state.store.set("enc.W0", np.eye(2))
        np.testing.assert_array_equal(state.encode_batch(np.array([[1.0, 2.0]])), [[1.0, 2.0]])
        assert state.log_var() == pytest.approx(math.log(1.0), abs=1e-15)

    def test_fixed_sigma_variance(self):
        cfg = _config(encoder={"layer_dims": [2, 2], "sigma2": 0.25})
        state = build_state(cfg, np.array([0.5, 0.5]))
        assert math.exp(state.log_var()) == pytest.approx(0.25, abs=1e-15)

    def test_learned_eta_adds_floor(self):
        cfg = _config(encoder={"layer_dims": [2, 2], "noise_mode": "learned_eta", "sigma2": 1e-4})
        state = build_state(cfg, np.array([0.5, 0.5]))
        state.store.set("enc.log_eta2", np.array(math.log(0.5)))
        assert state.eta2() == pytest.approx(0.5, abs=1e-15)
        assert state.log_var() == pytest.approx(math.log(0.5 + 1e-4), abs=1e-15)

    def test_overflowing_learned_noise_raises_nonfinite(self):
        cfg = _config(encoder={"layer_dims": [2, 2], "noise_mode": "learned_eta"})
        state = build_state(cfg, np.array([0.5, 0.5]))
        state.store.set("enc.log_eta2", np.array(1000.0))
        with pytest.raises(NonFiniteError, match="overflows"):
            state.eta2()
        with pytest.raises(NonFiniteError, match="overflows"):
            state.log_var()

    def test_dimension_mismatch_rejected(self):
        state = _state()
        with pytest.raises(ValueError):
            state.encode_batch(np.zeros((1, 3)))

    def test_mean_gradient_wrt_weights_passes_check(self):
        """The tape's net gives ``encode_batch``'s means; with beta' = 0 its weights see only the draws."""
        state = _state(seed=5)
        rng = np.random.default_rng(1)
        x = rng.uniform(-2, 2, (3, 2))
        labels = rng.integers(0, 2, 3)
        noise = rng.standard_normal((2, 3, 2))
        tape = Tape(stack_of_one(state.store))
        weights = state.net_names
        means = tape.mlp(x[None], weights, state.config["encoder"]["activation"])
        assert np.array_equal(means[0], state.encode_batch(x))
        report = grad_check(make_loss_fn(state, x, labels, 0.0, noise), state.store, eps=1e-5, tol=1e-5)
        assert report.passed, f"max rel {report.max_rel_error:.2e} at {report.worst_name}"


def _nb_state(means, log_sigma, priors):
    """A naive Bayes model whose surrogate has these (K, 2) means, (K,) log-sigmas and priors."""
    state = build_state(_config(encoder={"layer_dims": [2, 2]}), np.asarray(priors, dtype=float))
    state.store.set("sur.mu", np.asarray(means, dtype=float))
    state.store.set("sur.log_sigma", np.asarray(log_sigma, dtype=float))
    return state


def _probs(state, t):
    """Class probabilities of a (N, d) batch, or of one point as a (1, d) batch."""
    return np.exp(state.log_probs(np.atleast_2d(t)))


class TestDecodeNaiveBayes:
    def test_symmetric_classes_split_evenly_at_origin(self):
        state = _nb_state([[1.0, 1.0], [-1.0, -1.0]], np.zeros(2), [0.5, 0.5])
        np.testing.assert_allclose(_probs(state, np.zeros(2)), [[0.5, 0.5]], atol=1e-15)
        # every point of the perpendicular bisector t = (a, -a) is equidistant from both means
        line = np.array([[a, -a] for a in (-3.0, -0.5, 0.0, 2.0)])
        np.testing.assert_allclose(_probs(state, line), np.full((4, 2), 0.5), atol=1e-15)

    def test_class_mean_is_classified_to_its_class(self):
        means = np.array([[4.0, 0.0], [-4.0, 0.0], [0.0, 4.0]])
        state = _nb_state(means, np.zeros(3), np.full(3, 1 / 3))
        np.testing.assert_array_equal(np.argmax(_probs(state, means), axis=1), [0, 1, 2])
        for y in range(3):
            assert int(np.argmax(_probs(state, means[y])[0])) == y

    def test_matches_direct_bayes_rule_from_gaussian_density(self):
        rng = np.random.default_rng(4)
        means, log_sigma, priors = rng.uniform(-2, 2, (3, 2)), rng.uniform(-0.5, 0.5, 3), np.array([0.2, 0.5, 0.3])
        state = _nb_state(means, log_sigma, priors)

        def density(t, y):
            var = math.exp(2.0 * log_sigma[y])
            sq = float(np.sum((t - means[y]) ** 2))
            return math.exp(-0.5 * sq / var) / (2.0 * math.pi * var)  # d = 2

        points = rng.uniform(-3, 3, (20, 2))
        expected = np.array([[priors[y] * density(t, y) for y in range(3)] for t in points])
        expected /= expected.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(_probs(state, points), expected, atol=1e-12, rtol=0)
        for t, row in zip(points, expected):
            np.testing.assert_allclose(_probs(state, t), [row], atol=1e-12, rtol=0)

    def test_output_is_a_distribution_even_far_from_means(self):
        state = _nb_state([[1.0, 0.0], [-1.0, 0.0]], np.zeros(2), [0.5, 0.5])
        points = np.array([[1e4, -1e4], [-250.0, 3.0], [0.0, 0.0]])
        for batch in (points, *points):
            probs = _probs(state, batch)
            assert np.all(probs >= 0.0)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12, rtol=0)

    def test_argmax_is_shift_invariant_in_log_scores(self):
        # log-space normalization: scaling all priors cannot change the argmax
        rng = np.random.default_rng(11)
        means = rng.uniform(-2, 2, (3, 2))
        state = _nb_state(means, np.zeros(3), np.full(3, 1 / 3))
        points = rng.uniform(-5, 5, (10, 2))
        nearest = np.argmin(np.linalg.norm(means[None, :, :] - points[:, None, :], axis=2), axis=1)
        np.testing.assert_array_equal(np.argmax(_probs(state, points), axis=1), nearest)
        for t, y in zip(points, nearest):
            assert int(np.argmax(_probs(state, t)[0])) == y


@pytest.mark.parametrize("variant", ["naive_bayes", "softmax"])
@pytest.mark.parametrize("shape", [(3,), (3, 3), (1, 3, 2)])
def test_log_probs_rejects_points_of_another_shape(variant, shape):
    state = _state(_config(decoder={"variant": variant}))
    with pytest.raises(ValueError, match=re.escape(f"points must be ([P,] N, 2) like the store's stack, got {shape}")):
        state.log_probs(np.zeros(shape))


class TestDecodeSoftmax:
    def test_zero_parameters_give_uniform(self):
        cfg = _config(decoder={"variant": "softmax"}, encoder={"layer_dims": [2, 2]})
        state = build_state(cfg, np.full(3, 1 / 3))
        np.testing.assert_allclose(_probs(state, np.array([0.7, -0.3])), np.full((1, 3), 1 / 3), atol=1e-15)
        batch = np.random.default_rng(2).uniform(-4, 4, (6, 2))
        np.testing.assert_allclose(_probs(state, batch), np.full((6, 3), 1 / 3), atol=1e-15)

    def test_large_bias_dominates(self):
        cfg = _config(decoder={"variant": "softmax"}, encoder={"layer_dims": [2, 2]})
        state = build_state(cfg, np.array([0.5, 0.5]))
        state.store.set("head.b", np.array([50.0, 0.0]))
        assert _probs(state, np.zeros(2))[0, 0] > 1.0 - 1e-12
        assert np.all(_probs(state, np.zeros((4, 2)))[:, 0] > 1.0 - 1e-12)

    def test_normalization_on_random_inputs(self):
        rng = np.random.default_rng(3)
        cfg = _config(decoder={"variant": "softmax"}, encoder={"layer_dims": [2, 2]})
        state = build_state(cfg, np.array([0.5, 0.5]), rng)
        points = rng.uniform(-4, 4, (25, 2))
        for batch in (points, *points):
            probs = _probs(state, batch)
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12, rtol=0)
            assert np.all(probs >= 0.0)


class TestBuildState:
    @pytest.mark.parametrize("priors", [[0.5, 0.6], [-0.1, 1.1], [np.nan, 1.0], [0.5, np.nan], [np.inf, 0.0], 1.0,
                                        [[0.5, 0.5]], []])
    def test_priors_that_are_not_a_distribution_rejected(self, priors):
        with pytest.raises(ValueError, match="priors must be nonnegative and sum to 1"):
            build_state(_config(), np.array(priors))

    def test_priors_summing_to_one_within_1e_12_accepted(self):
        state = build_state(_config(), np.array([0.5, 0.5 + 1e-13]))
        assert state.priors.tolist() == [0.5, 0.5 + 1e-13] and state.class_count == 2


class TestHeadAccounting:
    def test_naive_bayes_head_owns_no_parameters(self):
        state = _state()
        assert not any(name.startswith("head.") for name in state.store.names())

    def test_softmax_head_owns_its_readout(self):
        cfg = _config(decoder={"variant": "softmax"})
        state = build_state(cfg, np.array([0.5, 0.5]))
        assert [name for name in state.store.names() if name.startswith("head.")] == ["head.W", "head.b"]

    def test_gradients_flow_only_to_encoder_and_surrogate_for_nb_head(self):
        rng = np.random.default_rng(6)
        state = _state(seed=8)
        x = rng.uniform(-2, 2, (5, 2))
        labels = rng.integers(0, 2, 5)
        noise = rng.standard_normal((1, 5, 2))
        tape = Tape(stack_of_one(state.store))
        state.loss_graph(tape, *shared_by_rows(tape.store, x, labels, 1.0, noise))
        grad = tape.backward()
        assert grad.shape == (1, state.store.size)
        grad = grad[0]
        touched = {
            name
            for name in state.store.names()
            if np.any(grad[state.store.spec(name).offset : state.store.spec(name).offset + state.store.spec(name).size] != 0.0)
        }
        assert all(name.startswith(("enc.", "sur.")) for name in touched)
        assert any(name.startswith("sur.") for name in touched)


class TestFullLossGradient:
    @pytest.mark.parametrize("head", ["softmax", "naive_bayes"])
    @pytest.mark.parametrize("noise_mode", ["fixed_sigma", "learned_eta"])
    def test_2_2_2_network_passes_at_1e5(self, head, noise_mode):
        rng = np.random.default_rng(42)
        cfg = _config(
            encoder={"layer_dims": [2, 2, 2], "noise_mode": noise_mode, "sigma2": 0.5},
            decoder={"variant": head},
        )
        state = build_state(cfg, np.array([0.5, 0.5]), rng)
        state.store.set("sur.mu", rng.uniform(-1, 1, (2, 2)))
        state.store.set("sur.log_sigma", rng.uniform(-0.3, 0.3, 2))
        x = rng.uniform(-2, 2, (4, 2))
        labels = rng.integers(0, 2, 4)
        noise = rng.standard_normal((1, 4, 2))
        lossfn = make_loss_fn(state, x, labels, 1.3, noise)
        report = grad_check(lossfn, state.store, eps=1e-5, tol=1e-5)
        assert report.passed, f"max rel {report.max_rel_error:.2e} at {report.worst_name}"

    def test_a_negative_beta_prime_rejected(self):
        state = _state()
        lossfn = make_loss_fn(state, np.zeros((3, 2)), np.array([0, 1, 0]), -1.0, np.zeros((1, 3, 2)))
        with pytest.raises(ValueError, match="^beta_prime must be nonnegative$"):
            lossfn(stack_of_one(state.store))


class _ReferenceTape(ChainTape):
    """A :class:`ChainTape` in the training loop's contract for a stack of one run.

    It records the run's row alone, and ``backward()`` differentiates the
    recorded total into a (1, size) gradient.
    """

    def __init__(self, store):
        super().__init__(store.with_values(store.values[0]))

    def backward(self):
        return super().backward(self.total)[None]


def _reference_loss_graph(per_draw_ops):
    """A ``ModelState.loss_graph`` stand-in that builds one of the reference graphs of a stack's one run."""

    def loss_graph(state, tape, x, labels, beta_prime, noise):
        nodes = chain_loss_graph(state, tape, x[0], labels[0], beta_prime[0], noise[0], per_draw_ops=per_draw_ops)
        tape.total = nodes[0]
        return tuple(np.asarray(tape.val(node))[None] for node in nodes)

    return loss_graph


def _train_with_reference(monkeypatch, cfg, train_ds, per_draw_ops):
    """``train`` of one config over the reference graphs, taking its batches one sort per step."""
    with monkeypatch.context() as patch:
        patch.setattr(model, "Tape", _ReferenceTape)
        patch.setattr(model.ModelState, "loss_graph", _reference_loss_graph(per_draw_ops))
        patch.setattr(model, "_batch_blocks", per_step_batches)
        return train([cfg], train_ds)[0]


class TestFusedLossGraph:
    """The loss graph of fused nodes equals its reference graphs bit for bit.

    The references are the graph of primitive ops and the graph of per-draw
    ops (one score and one NLL node per draw), built on a :class:`ChainTape`
    with copied leaves.
    """

    @pytest.mark.parametrize("head", ["softmax", "naive_bayes"])
    @pytest.mark.parametrize("learn_sigma", [True, False])
    @pytest.mark.parametrize("noise_mode", ["fixed_sigma", "learned_eta"])
    @pytest.mark.parametrize("mc_samples", [1, 3])
    def test_values_and_gradient_match_primitive_chain(self, head, learn_sigma, noise_mode, mc_samples):
        self._check_against_references([3, 5, 2], "softplus", head, learn_sigma, noise_mode, mc_samples)

    @pytest.mark.parametrize("layer_dims", [[3, 2], [3, 5, 2], [3, 5, 4, 2], [3, 5, 4, 3, 2]],
                             ids=lambda dims: "x".join(map(str, dims)))
    @pytest.mark.parametrize("activation", ["relu", "softplus", "tanh"])
    @pytest.mark.parametrize("head", ["softmax", "naive_bayes"])
    @pytest.mark.parametrize("learn_sigma", [True, False])
    @pytest.mark.parametrize("noise_mode", ["fixed_sigma", "learned_eta"])
    @pytest.mark.parametrize("mc_samples", [1, 3])
    def test_model_family_matches_reference_graphs(
        self, layer_dims, activation, head, learn_sigma, noise_mode, mc_samples
    ):
        self._check_against_references(layer_dims, activation, head, learn_sigma, noise_mode, mc_samples)

    @staticmethod
    def _check_against_references(layer_dims, activation, head, learn_sigma, noise_mode, mc_samples):
        rng = np.random.default_rng(5)
        cfg = _config(
            encoder={"layer_dims": layer_dims, "activation": activation, "noise_mode": noise_mode,
                     "sigma2": 0.5},
            decoder={"variant": head},
            surrogate={"learn_sigma": learn_sigma},
        )
        state = build_state(cfg, np.array([0.2, 0.5, 0.3]), rng)
        state.store.set("sur.mu", rng.uniform(-1, 1, (3, 2)))
        if learn_sigma:
            state.store.set("sur.log_sigma", rng.uniform(-0.5, 0.5, 3))
        if noise_mode == "learned_eta":
            state.store.set("enc.log_eta2", np.array(-0.7))
        x = rng.uniform(-2, 2, (8, 3))
        labels = rng.integers(0, 3, 8)
        noise = rng.standard_normal((mc_samples, 8, 2))
        fused = Tape(stack_of_one(state.store))
        fused_values = state.loss_graph(fused, *shared_by_rows(fused.store, x, labels, 0.8, noise))
        fused_grad = fused.backward()[0]
        for per_draw_ops in (False, True):
            chain = ChainTape(state.store)
            chain_nodes = chain_loss_graph(state, chain, x, labels, 0.8, noise, per_draw_ops=per_draw_ops)
            for f, c in zip(fused_values, chain_nodes):
                assert f[0] == chain.val(c)
            assert np.array_equal(fused_grad, chain.backward(chain_nodes[0]))
            assert len(fused) < len(chain)

    @pytest.mark.parametrize("head", ["softmax", "naive_bayes"])
    def test_training_matches_primitive_chain(self, head, monkeypatch):
        cfg = _config(decoder={"variant": head}, encoder={"layer_dims": [2, 4, 2], "noise_mode": "learned_eta"},
                      loss={"beta_prime": 1.0, "mc_samples": 2})
        ds_train, _ = data_io.dataset_from_config(cfg["dataset"])
        fused = train([cfg], ds_train)[0]
        chained = _train_with_reference(monkeypatch, cfg, ds_train, per_draw_ops=False)
        assert np.array_equal(fused.state.store.values, chained.state.store.values)
        assert fused.metrics == chained.metrics

    @pytest.mark.parametrize("per_draw_ops", [False, True])
    @pytest.mark.parametrize("overrides", [
        {"decoder": {"variant": "softmax"}},
        {"decoder": {"variant": "naive_bayes"}},
        {"encoder": {"layer_dims": [2, 5, 4, 2], "activation": "relu"},
         "surrogate": {"learn_sigma": False}, "loss": {"beta_prime": 0.5, "mc_samples": 3}},
        {"encoder": {"layer_dims": [2, 4, 2], "activation": "tanh", "noise_mode": "learned_eta"},
         "decoder": {"variant": "softmax"}},
        {"surrogate": {"learn_sigma": True, "update": "alternating"}},
        {"optim": {"kind": "sgd", "lr": 0.05, "steps": 40, "batch": 16, "log_every": 20}},
        {"optim": {"steps": 9, "batch": 120, "log_every": 4}},
        {"optim": {"steps": 20, "batch": 50, "log_every": 10}},
    ], ids=["softmax", "naive_bayes", "relu-3-layers-S3-fixed-sigma-y", "tanh-softmax-eta", "alternating", "sgd",
            "full-batch", "batch-50-of-120"])
    def test_training_matches_reference(self, overrides, per_draw_ops, monkeypatch):
        base = {"encoder": {"layer_dims": [2, 4, 2], "noise_mode": "learned_eta"},
                "loss": {"beta_prime": 1.0, "mc_samples": 2}}
        cfg = _config(**{**base, **overrides})
        ds_train, _ = data_io.dataset_from_config(cfg["dataset"])
        fused = train([cfg], ds_train)[0]
        reference = _train_with_reference(monkeypatch, cfg, ds_train, per_draw_ops)
        assert np.array_equal(fused.state.store.values, reference.state.store.values)
        assert fused.metrics == reference.metrics

    def test_reference_desk_run_is_matched_for_2000_steps(self, monkeypatch):
        """The acceptance-7 run: 2000 Adam steps on the 2-8-2 softplus net, naive Bayes head."""
        cfg = _config(
            dataset={"kind": "gmm", "classes": 2, "dim": 2, "per_class": 500, "sep": 4.0, "seed": 7},
            encoder={"layer_dims": [2, 8, 2]},
            optim={"steps": 2000, "batch": 64, "log_every": 500},
        )
        ds_train, _ = data_io.dataset_from_config(cfg["dataset"])
        fused = train([cfg], ds_train)[0]
        reference = _train_with_reference(monkeypatch, cfg, ds_train, per_draw_ops=True)
        assert np.array_equal(fused.state.store.values, reference.state.store.values)
        assert fused.metrics == reference.metrics

    @pytest.mark.parametrize("head", ["softmax", "naive_bayes"])
    def test_one_step_calls_each_traced_entry_point_once(self, head, monkeypatch):
        """The benchmark times a step through these names; each must stay on the path."""
        counts = collections.Counter()
        tape_lengths = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                if name == "backward":  # the benchmark records len(tape) as its node count
                    tape_lengths.append(len(args[0]))
                return fn(*args, **kwargs)

            return wrapper

        kl_graph = counted("kl_to_surrogate_graph", gaussians.kl_to_surrogate_graph)
        monkeypatch.setattr(gaussians, "kl_to_surrogate_graph", kl_graph)
        monkeypatch.setattr(objectives, "kl_to_surrogate_graph", kl_graph)
        monkeypatch.setattr(objectives, "cib_loss_graph", counted("cib_loss_graph", objectives.cib_loss_graph))
        monkeypatch.setattr(model.ModelState, "loss_graph", counted("loss_graph", model.ModelState.loss_graph))
        monkeypatch.setattr(diffcore.Tape, "backward", counted("backward", diffcore.Tape.backward))
        monkeypatch.setattr(model._Adam, "update", counted("update", model._Adam.update))
        cfg = _config(decoder={"variant": head}, optim={"steps": 1, "batch": 16})
        ds_train, _ = data_io.dataset_from_config(cfg["dataset"])
        train([cfg], ds_train)
        assert counts == {name: 1 for name in
                          ("loss_graph", "cib_loss_graph", "kl_to_surrogate_graph", "backward", "update")}
        assert [type(n) for n in tape_lengths] == [int]


class TestTrain:
    def test_zero_steps_returns_initialization(self):
        cfg = _config(optim={"steps": 0, "batch": 16})
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        result = train([cfg], train_ds)[0]
        fresh = build_state(cfg, model._empirical_priors(train_ds),
                            np.random.default_rng(derive_seed(cfg["seed"], 0)))
        np.testing.assert_array_equal(result.state.store.values, fresh.store.values)
        assert len(result.metrics) == 1 and result.metrics[0].step == 0

    def test_same_seed_runs_are_bit_identical(self):
        cfg = _config()
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        a, b = train([cfg], train_ds)[0], train([cfg], train_ds)[0]
        assert a.metrics == b.metrics
        np.testing.assert_array_equal(a.state.store.values, b.state.store.values)

    def test_full_batch_is_invariant_to_sample_order(self, monkeypatch):
        # per_class 60 over two classes: batch 120 covers the whole split
        cfg = _config(optim={"steps": 15, "batch": 120})
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        a = train([cfg], train_ds)[0]
        monkeypatch.setattr(model, "_SHUFFLE_STREAM", 999)
        b = train([cfg], train_ds)[0]
        np.testing.assert_array_equal(a.state.store.values, b.state.store.values)
        assert a.metrics == b.metrics

    def test_minibatch_depends_on_shuffle_stream(self, monkeypatch):
        cfg = _config(optim={"steps": 15, "batch": 16})
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        a = train([cfg], train_ds)[0]
        monkeypatch.setattr(model, "_SHUFFLE_STREAM", 999)
        b = train([cfg], train_ds)[0]
        assert not np.array_equal(a.state.store.values, b.state.store.values)

    def test_separable_mixture_reaches_bayes_range_accuracy(self):
        cfg = _config(
            dataset={"kind": "gmm", "classes": 2, "dim": 2, "per_class": 500, "sep": 4.0, "seed": 7},
            encoder={"layer_dims": [2, 8, 2]},
            decoder={"variant": "softmax"},
            loss={"beta_prime": 0.0},
            optim={"steps": 300, "batch": 64, "log_every": 100},
        )
        train_ds, test_ds = data_io.dataset_from_config(cfg["dataset"])
        result = train([cfg], train_ds, test_ds)[0]
        ev = evaluate([result.state], test_ds)[0]
        # generator's analytic Bayes accuracy is ~0.977; demand most of it
        assert ev.accuracy >= 0.95

    def test_nonfinite_loss_aborts_with_diagnostics(self):
        cfg = _config(optim={"steps": 50, "batch": 16, "lr": 1e12})
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        error = train([cfg], train_ds)[0].error
        assert isinstance(error, NonFiniteLossError)
        assert error.step is not None
        assert error.sample_index is not None

    def test_diagnose_nonfinite_names_the_bad_row(self):
        state = _state()
        x = np.random.default_rng(2).normal(size=(5, 2))
        x[3] = 1e200  # finite code, but its squared distances overflow
        labels = np.array([0, 1, 0, 1, 1])
        noise = np.random.default_rng(3).standard_normal((2, 5, 2))
        batch_idx = np.array([40, 41, 42, 43, 44])
        assert np.all(np.isfinite(state.encode_batch(x)))
        assert model._diagnose_nonfinite(state, x, labels, noise, batch_idx) == 43
        x[3] = np.inf  # non-finite code
        assert model._diagnose_nonfinite(state, x, labels, noise, batch_idx) == 43

    def test_missing_class_rejected(self):
        feats = np.random.default_rng(0).normal(size=(10, 2))
        ds = Dataset(feats, np.zeros(10, dtype=int), 2)
        with pytest.raises(ValueError, match="no samples"):
            train([_config()], ds)

    def test_dimension_mismatch_rejected(self):
        feats = np.random.default_rng(0).normal(size=(10, 3))
        ds = Dataset(feats, np.arange(10) % 2, 2)
        with pytest.raises(ValueError, match="dimension"):
            train([_config()], ds)

    def test_alternating_mode_sets_surrogate_to_class_moments(self):
        cfg = _config(surrogate={"learn_sigma": True, "update": "alternating"})
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        result = train([cfg], train_ds)[0]
        means = result.state.encode_batch(train_ds.features)
        var = math.exp(result.state.log_var())
        mu, log_sigma = result.state.surrogate()
        for y in (0, 1):
            rows = means[train_ds.labels == y]
            np.testing.assert_allclose(mu[y], rows.mean(axis=0), atol=1e-12)
            expected_sigma2 = float(np.mean((rows - rows.mean(axis=0)) ** 2)) + var
            assert log_sigma[y] == pytest.approx(0.5 * math.log(expected_sigma2), abs=1e-12)

    def test_learned_eta_mode_trains_and_keeps_noise_positive(self):
        cfg = _config(encoder={"layer_dims": [2, 4, 2], "noise_mode": "learned_eta", "sigma2": 1e-4})
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        result = train([cfg], train_ds)[0]
        assert result.state.eta2() > 0.0
        assert math.isfinite(result.state.log_var())

    def test_beta_config_is_converted_to_beta_prime(self):
        cfg = _config(loss={"beta": 0.5}, optim={"steps": 2, "batch": 16})
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        result = train([cfg], train_ds)[0]
        assert result.beta_prime == pytest.approx(1.0, abs=1e-15)
        assert result.metrics[-1].beta_prime == pytest.approx(1.0, abs=1e-15)

    def test_fixed_surrogate_sigma_drops_the_parameter(self):
        cfg = _config(surrogate={"learn_sigma": False, "update": "gradient"})
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        result = train([cfg], train_ds)[0]
        assert "sur.log_sigma" not in result.state.store.names()
        np.testing.assert_array_equal(result.state.surrogate()[1], [0.0, 0.0])
        assert result.metrics[-1].accuracy > 0.5

    def test_sgd_optimizer_runs_deterministically(self):
        cfg = _config(optim={"kind": "sgd", "lr": 0.05, "steps": 30, "batch": 16})
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        a, b = train([cfg], train_ds)[0], train([cfg], train_ds)[0]
        np.testing.assert_array_equal(a.state.store.values, b.state.store.values)
        assert a.metrics[-1].total < a.metrics[0].total

    def test_priors_knob_can_pool_both_splits(self):
        rng = np.random.default_rng(0)
        train_ds = Dataset(rng.normal(size=(30, 2)), np.repeat([0, 1], [10, 20]), 2)
        test_ds = Dataset(rng.normal(size=(30, 2)), np.repeat([0, 1], [25, 5]), 2)
        cfg_train = _config(optim={"steps": 0, "batch": 8})
        res_train = train([cfg_train], train_ds, test_ds)[0]
        np.testing.assert_allclose(res_train.state.priors, [10 / 30, 20 / 30], atol=1e-15)
        cfg_all = _config(
            optim={"steps": 0, "batch": 8},
            surrogate={"learn_sigma": True, "update": "gradient", "priors": "all"},
        )
        res_all = train([cfg_all], train_ds, test_ds)[0]
        np.testing.assert_allclose(res_all.state.priors, [35 / 60, 25 / 60], atol=1e-15)


def _points(cfg, beta_primes):
    """The configs of a sweep's points over ``beta_primes``, as :func:`model.sweep` makes them."""
    loss = {key: value for key, value in cfg["loss"].items() if key not in ("beta", "beta_prime")}
    return [validate_config({**cfg, "loss": {**loss, "beta_prime": bp}, "seed": derive_seed(cfg["seed"], i)})
            for i, bp in enumerate(beta_primes)]


def _same_run(stacked, alone):
    """Every metrics row, the final values, beta' and any error equal those of the run trained alone."""
    assert stacked.metrics == alone.metrics and stacked.beta_prime == alone.beta_prime
    assert np.array_equal(stacked.state.store.values, alone.state.store.values)
    assert type(stacked.error) is type(alone.error) and str(stacked.error) == str(alone.error)
    assert getattr(stacked.error, "step", None) == getattr(alone.error, "step", None)


class TestLockstep:
    """Runs trained as one stack are, point by point, ``==`` the runs trained one config at a time."""

    @pytest.mark.parametrize("shuffle_stream", [None, 11])
    @pytest.mark.parametrize("overrides", [
        {"decoder": {"variant": "softmax"}},
        {"decoder": {"variant": "naive_bayes"}, "loss": {"beta_prime": 1.0, "mc_samples": 3}},
        {"encoder": {"layer_dims": [2, 5, 3], "activation": "tanh", "noise_mode": "learned_eta"},
         "decoder": {"variant": "softmax"}},
        {"encoder": {"layer_dims": [2, 4, 2], "activation": "relu", "noise_mode": "learned_eta", "sigma2": 0.3},
         "surrogate": {"learn_sigma": False}},
        {"surrogate": {"learn_sigma": True, "update": "alternating"}},
        {"optim": {"kind": "sgd", "lr": 0.05, "steps": 23, "batch": 20, "log_every": 7}},
        {"optim": {"steps": 0, "batch": 16}},
        {"optim": {"steps": 9, "batch": 120, "log_every": 4}},
    ], ids=["softmax", "naive-bayes-3-draws", "learned-eta", "fixed-sigma-y", "alternating", "sgd", "zero-steps",
            "full-batch"])
    def test_stacked_runs_equal_runs_alone(self, overrides, shuffle_stream, monkeypatch):
        if shuffle_stream is not None:
            monkeypatch.setattr(model, "_SHUFFLE_STREAM", shuffle_stream)
        configs = _points(_config(**overrides), [0.0, 0.3, 1.0, 3.0, 10.0])
        train_ds, test_ds = data_io.dataset_from_config(configs[0]["dataset"])
        stacked = train(configs, train_ds, test_ds)
        assert len(stacked) == 5
        monkeypatch.setattr(model, "_batch_blocks", per_step_batches)  # the runs alone sort each step's batch
        for cfg, run in zip(configs, stacked):
            assert run.error is None
            _same_run(run, train([cfg], train_ds, test_ds)[0])

    @pytest.mark.parametrize("p,n,batch", [(1, 120, 16), (1, 120, 120), (3, 120, 16), (3, 120, 120), (3, 10, 3),
                                           (2, 7, 1), (3, 1, 1)])
    def test_an_epochs_batch_blocks_equal_per_step_sorts(self, p, n, batch):
        """One sort of an epoch's blocks gives each step the batch that sorting it alone gives."""
        rng = np.random.default_rng(1000 * p + 10 * n + batch)
        order = np.stack([rng.permutation(n) for _ in range(p)])
        blocks = model._batch_blocks(order, batch)
        assert blocks.shape == (p, n // batch, batch)
        assert np.array_equal(blocks, per_step_batches(order, batch))

    def test_failing_points_leave_the_stack_and_the_rest_go_on(self):
        """Points fail at different steps, from the loss or from evaluation; each run equals its run alone.

        The first failure ends the stack, and every point of it is trained again alone.
        """
        cfg = _config(encoder={"layer_dims": [2, 3, 2], "noise_mode": "learned_eta"},
                      optim={"kind": "sgd", "lr": 30.0, "steps": 20, "batch": 8, "log_every": 3},
                      dataset={"kind": "gmm", "classes": 2, "dim": 2, "per_class": 12, "sep": 4.0, "seed": 3},
                      seed=3)
        configs = _points(cfg, [0.0, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 1e3, 1e4])
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        stacked = train(configs, train_ds)
        alone = [train([c], train_ds)[0] for c in configs]
        failed = {type(run.error).__name__ for run in alone if run.error is not None}
        assert failed == {"NonFiniteLossError", "NonFiniteError"}
        assert len({run.error.step for run in alone if isinstance(run.error, NonFiniteLossError)}) > 1
        assert any(run.error is None for run in alone)
        for run, solo in zip(stacked, alone):
            _same_run(run, solo)

    @pytest.mark.parametrize("fail_step", [0, 2, 3])
    def test_a_failed_surrogate_update_ends_its_run_at_once(self, fail_step, monkeypatch):
        """A point whose moment step fails keeps that error and logs no row at that step, even on a log step.

        The calls are counted per stack, so the point fails at the same step in its stack and alone.
        """
        cfg = _config(surrogate={"learn_sigma": True, "update": "alternating"},
                      optim={"steps": 6, "batch": 16, "log_every": 3})
        configs = _points(cfg, [0.0, 1.0, 3.0])
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        moment_step, calls = model._alternating_moment_step, collections.Counter()
        failure = ArithmeticError("surrogate update failed")

        def failing_moment_step(state, ds):
            beta_prime = state.config["loss"]["beta_prime"]
            calls[beta_prime] += 1  # one call at step 0, then one per step
            if beta_prime == 1.0 and calls[beta_prime] == fail_step + 1:
                raise failure
            moment_step(state, ds)

        def counted_train_stack(*args):
            calls.clear()
            return train_stack(*args)

        alone = [train([c], train_ds)[0] for c in configs]
        train_stack = model._train_stack
        monkeypatch.setattr(model, "_alternating_moment_step", failing_moment_step)
        monkeypatch.setattr(model, "_train_stack", counted_train_stack)
        stacked = train(configs, train_ds)
        assert stacked[1].error is failure
        assert [row.step for row in stacked[1].metrics] == ([] if fail_step == 0 else [0])
        for run, solo in zip([stacked[0], stacked[2]], [alone[0], alone[2]]):
            _same_run(run, solo)

    def test_a_large_model_trains_in_several_stacks(self, monkeypatch):
        """Past STACK_VALUES the runs train in consecutive stacks, each run still equal to its run alone."""
        configs = _points(_config(optim={"steps": 5, "batch": 16, "log_every": 2}), [0.0, 0.3, 1.0, 3.0, 10.0])
        train_ds, _ = data_io.dataset_from_config(configs[0]["dataset"])
        rows = model._stack_rows(build_state(configs[0], np.array([0.5, 0.5])), 16, 1)
        monkeypatch.setattr(model, "STACK_VALUES", model.STACK_VALUES // rows * 2)
        assert model._stack_rows(build_state(configs[0], np.array([0.5, 0.5])), 16, 1) == 2
        stacks = []
        train_stack = model._train_stack
        monkeypatch.setattr(model, "_train_stack",
                            lambda cfgs, *rest: stacks.append(len(cfgs)) or train_stack(cfgs, *rest))
        stacked = train(configs, train_ds)
        assert stacks == [2, 2, 1]
        for cfg, run in zip(configs, stacked):
            _same_run(run, train([cfg], train_ds)[0])

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(kind=st.sampled_from(["loss", "moment step", "metrics row"]), points=st.integers(2, 5),
           alternating=st.booleans(), data=st.data())
    def test_an_injected_failure_leaves_every_run_equal_to_its_run_alone(self, kind, points, alternating, data):
        """A run of a stack fails, in a way and at a step drawn here; every run is ``==`` its run alone.

        The failure is keyed to the run and counted per :func:`model._train_stack` call, so the failing
        run fails the same way in its stack and alone.
        """
        steps, log_every = 6, 2
        alternating = alternating or kind == "moment step"
        update = "alternating" if alternating else "gradient"
        configs = _points(_config(surrogate={"learn_sigma": True, "update": update},
                                  optim={"steps": steps, "batch": 16, "log_every": log_every}),
                          [0.1 * (i + 1) for i in range(points)])
        train_ds, _ = data_io.dataset_from_config(configs[0]["dataset"])
        target = configs[data.draw(st.integers(0, points - 1))]
        if kind == "loss":
            at = data.draw(st.integers(1, steps))  # the step whose loss turns NaN
        elif kind == "moment step":
            at = data.draw(st.integers(0, steps))  # the step whose surrogate update fails
        else:
            at = data.draw(st.integers(0, steps // log_every))  # the metrics row that fails
        failure = ArithmeticError(f"injected {kind} failure")
        calls = collections.Counter()
        train_stack, loss_graph, moment_step, stack_terms = (
            model._train_stack, model.ModelState.loss_graph, model._alternating_moment_step, model._stack_terms)

        def counted_train_stack(*args):
            calls.clear()
            return train_stack(*args)

        def failing_loss_graph(self, tape, x, labels, beta_prime, noise):
            total, ce, kl = loss_graph(self, tape, x, labels, beta_prime, noise)
            calls["loss"] += 1  # one call a step
            if calls["loss"] == at:
                total[beta_prime == target["loss"]["beta_prime"]] = np.nan
            return total, ce, kl

        def failing_moment_step(state, ds):
            calls["moment step", state.config["seed"]] += 1  # one call at step 0, then one per step
            if state.config["seed"] == target["seed"] and calls["moment step", target["seed"]] == at + 1:
                raise failure
            moment_step(state, ds)

        def failing_stack_terms(states, ds, noise=None):
            outcomes = stack_terms(states, ds, noise)
            calls["metrics row"] += 1  # one call a metrics row
            return [failure if calls["metrics row"] == at + 1 and state.config["seed"] == target["seed"] else outcome
                    for state, outcome in zip(states, outcomes)]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "_train_stack", counted_train_stack)
            if kind == "loss":
                mp.setattr(model.ModelState, "loss_graph", failing_loss_graph)
            elif kind == "moment step":
                mp.setattr(model, "_alternating_moment_step", failing_moment_step)
            else:
                mp.setattr(model, "_stack_terms", failing_stack_terms)
            stacked = train(configs, train_ds)
            alone = [train([cfg], train_ds)[0] for cfg in configs]
        failed = [run.error for run in stacked]
        assert sum(error is not None for error in failed) == 1
        error = failed[configs.index(target)]
        assert error is failure if kind != "loss" else error.step == at
        for run, solo in zip(stacked, alone):
            _same_run(run, solo)

    def test_a_stack_without_failures_trains_and_evaluates_in_one_call_each(self, monkeypatch):
        """A fallback to runs alone, about P times slower, would show here as more calls."""
        configs = _points(_config(), [0.0, 0.3, 1.0, 3.0, 10.0])
        train_ds, test_ds = data_io.dataset_from_config(configs[0]["dataset"])
        calls = collections.Counter()
        for name in ("_train_stack", "_pass_terms"):
            monkeypatch.setattr(model, name, lambda *args, name=name, fn=getattr(model, name):
                                calls.update([name]) or fn(*args))
        runs = train(configs, train_ds, test_ds)
        assert all(run.error is None for run in runs)
        assert calls == {"_train_stack": 1, "_pass_terms": 3}  # metrics rows at steps 0, 20 and 40
        model.tradeoff_points(runs, test_ds)
        assert calls == {"_train_stack": 1, "_pass_terms": 4}

    @pytest.mark.parametrize("owner,name,error", [
        (model.ModelState, "loss_graph", ValueError),
        (objectives, "cib_loss", ValueError),
        (model, "_alternating_moment_step", ValueError),
        (estimators, "bound_report", ValueError),
    ], ids=["tape", "evaluation kernel", "moment step", "bound report"])
    def test_a_program_error_is_no_run_failure_and_propagates(self, monkeypatch, owner, name, error):
        """A ValueError, such as a failed shape check, is a broken contract, not a failing run: train and evaluate raise it.

        Only an ArithmeticError is a run's failure.
        """
        update = "alternating" if name == "_alternating_moment_step" else "gradient"
        configs = _points(_config(surrogate={"update": update}), [0.0, 1.0, 3.0])
        train_ds, _ = data_io.dataset_from_config(configs[0]["dataset"])
        states = [run.state for run in train(configs, train_ds)]

        def broken(*args):
            raise error("broken contract")

        monkeypatch.setattr(owner, name, broken)
        if name in ("cib_loss", "bound_report"):
            with pytest.raises(error, match="broken contract"):
                evaluate(states, train_ds)
        if name != "bound_report":  # training evaluates no bounds
            with pytest.raises(error, match="broken contract"):
                train(configs, train_ds)

    def test_configs_must_differ_only_in_beta_prime_and_seed(self):
        a, b = _points(_config(), [0.0, 1.0])
        train_ds, _ = data_io.dataset_from_config(a["dataset"])
        with pytest.raises(ValueError, match="differ in optim"):
            train([a, {**b, "optim": {**b["optim"], "lr": 0.5}}], train_ds)
        with pytest.raises(ValueError, match="differ in loss"):
            train([a, {**b, "loss": {"beta_prime": 1.0, "mc_samples": 2}}], train_ds)
        with pytest.raises(ValueError, match="at least one config"):
            train([], train_ds)


class TestEvaluate:
    def test_final_logged_metrics_match_evaluate_exactly(self):
        cfg = _config()
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        result = train([cfg], train_ds)[0]
        final = result.metrics[-1]
        ev = evaluate([result.state], train_ds)[0]
        assert final.cross_entropy == ev.cross_entropy
        assert final.kl_term == ev.kl_term
        assert final.accuracy == ev.accuracy
        assert final.total == ev.cross_entropy + result.beta_prime * ev.kl_term

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"optim": {"steps": 0, "batch": 16}},
            {"surrogate": {"learn_sigma": True, "update": "alternating"}},
            {"optim": {"steps": 7, "batch": 16, "log_every": 3}, "decoder": {"variant": "softmax"}},
        ],
        ids=["logged", "zero-steps", "alternating", "unlogged-last-step"],
    )
    def test_tradeoff_point_train_terms_equal_a_fresh_evaluation(self, overrides):
        cfg = _config(**overrides)
        train_ds, test_ds = data_io.dataset_from_config(cfg["dataset"])
        run = train([cfg], train_ds, test_ds)[0]
        [point] = model.tradeoff_points([run], test_ds)
        fresh = evaluate([run.state], train_ds)[0]
        final = run.metrics[-1]
        assert (final.cross_entropy, final.kl_term, final.accuracy) == (
            fresh.cross_entropy, fresh.kl_term, fresh.accuracy)
        assert point.ce_train == fresh.cross_entropy
        assert point.kl_train == fresh.kl_term
        ev = evaluate([run.state], test_ds)[0]
        assert (point.ce_test, point.kl_test, point.acc_test) == (ev.cross_entropy, ev.kl_term, ev.accuracy)
        assert (point.ixt, point.ixt_given_y) == (ev.bounds.unconditional, ev.bounds.aggregate)

    def test_perfect_separation_gives_unit_accuracy(self):
        cfg = _config(encoder={"layer_dims": [2, 2]})
        state = build_state(cfg, np.array([0.5, 0.5]))
        state.store.set("enc.W0", np.eye(2))
        state.store.set("sur.mu", np.array([[8.0, 0.0], [-8.0, 0.0]]))
        feats = np.concatenate([np.full((5, 2), [8.0, 0.0]), np.full((5, 2), [-8.0, 0.0])])
        ds = Dataset(feats, np.repeat([0, 1], 5), 2)
        assert evaluate([state], ds)[0].accuracy == 1.0

    def test_accuracy_matches_hand_count_on_ten_samples(self):
        rng = np.random.default_rng(9)
        cfg = _config(encoder={"layer_dims": [2, 2]})
        state = build_state(cfg, np.array([0.5, 0.5]), rng)
        state.store.set("sur.mu", rng.uniform(-1, 1, (2, 2)))
        feats = rng.uniform(-2, 2, (10, 2))
        labels = rng.integers(0, 2, 10)
        ds = Dataset(feats, labels, 2)
        means = state.encode_batch(feats)
        hits = sum(int(np.argmax(state.log_probs(means[i : i + 1])[0])) == labels[i] for i in range(10))
        assert int(np.sum(np.argmax(state.log_probs(means), axis=1) == labels)) == hits
        assert evaluate([state], ds)[0].accuracy == pytest.approx(hits / 10, abs=0)

    def test_evaluate_is_deterministic(self):
        cfg = _config()
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        result = train([cfg], train_ds)[0]
        a, b = evaluate([result.state], train_ds)[0], evaluate([result.state], train_ds)[0]
        assert (a.accuracy, a.cross_entropy, a.kl_term) == (b.accuracy, b.cross_entropy, b.kl_term)

    def test_zero_probability_true_class_gives_infinite_cross_entropy(self, monkeypatch):
        state = _state()
        ds = Dataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]), 2)
        monkeypatch.setattr(model.ModelState, "log_probs", lambda self, t: np.tile([0.0, -np.inf], t.shape[:-1] + (1,)))
        assert evaluate([state], ds)[0].cross_entropy == np.inf

    def test_nan_log_probability_rejected(self, monkeypatch):
        state = _state()
        ds = Dataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]), 2)
        monkeypatch.setattr(model.ModelState, "log_probs", lambda self, t: np.full(t.shape[:-1] + (2,), np.nan))
        [outcome] = evaluate([state], ds)
        assert isinstance(outcome, NonFiniteError) and "finite or -inf" in str(outcome)

    def test_negative_kl_rejected(self, monkeypatch):
        state = _state()
        ds = Dataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]), 2)
        real = objectives.cib_loss

        def shifted(*args):
            true_lp, kl = real(*args)
            return true_lp, np.full_like(kl, -1e-6)

        monkeypatch.setattr(objectives, "cib_loss", shifted)
        [outcome] = evaluate([state], ds)
        assert isinstance(outcome, NonFiniteError) and "kl_term must be nonnegative" in str(outcome)

    def test_nonfinite_codes_rejected(self):
        state = _state()
        state.store.set("enc.b0", np.full(4, 1e300))
        state.store.set("enc.W1", np.full((2, 4), 1e300))  # the second layer overflows
        ds = Dataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]), 2)
        [outcome] = evaluate([state], ds)
        assert isinstance(outcome, NonFiniteError) and "codes must be finite" in str(outcome)

    @staticmethod
    def _nonfinite_case(log_eta2, bad=("sur.mu", (1, 0), np.nan)):
        """A learned-eta model with one non-finite surrogate entry and this log eta^2, a split and a batch of it."""
        state = _state(_config(encoder={"layer_dims": [2, 4, 2], "noise_mode": "learned_eta", "sigma2": 0.5}))
        name, at, value = bad
        state.store.get(name)[at] = value
        state.store.set("enc.log_eta2", np.array(log_eta2))
        ds = Dataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]), 2)
        return state, ds, (state, ds.features, ds.labels, np.zeros((1, 4, 2)), np.arange(4))

    @pytest.mark.parametrize("bad", [("sur.mu", (1, 0), np.nan), ("sur.log_sigma", 0, np.inf)])
    def test_nonfinite_surrogate_fails_evaluation_and_diagnosis(self, bad):
        state, ds, batch = self._nonfinite_case(0.0, bad)
        with pytest.raises(NonFiniteError, match="^ClassSurrogate parameters must be finite$"):
            state.surrogate()
        [outcome] = evaluate([state], ds)
        assert type(outcome) is NonFiniteError and str(outcome) == "ClassSurrogate parameters must be finite"
        with pytest.raises(NonFiniteError, match="^ClassSurrogate parameters must be finite$"):
            model._diagnose_nonfinite(*batch)

    def test_evaluation_checks_the_surrogate_before_the_noise_variance(self):
        """Naive-Bayes scores read the surrogate, so evaluation checks it first; the diagnosis reads log_var first."""
        state, ds, batch = self._nonfinite_case(1e300)
        [outcome] = evaluate([state], ds)
        assert type(outcome) is NonFiniteError and str(outcome) == "ClassSurrogate parameters must be finite"
        with pytest.raises(NonFiniteError, match=r"^learned noise variance exp\(1e\+300\) overflows$"):
            model._diagnose_nonfinite(*batch)


class TestEvaluationKernel:
    """Evaluation on codes is ``==`` to the DiagGaussian object path of ``helpers``."""

    @staticmethod
    def _case(head, learn_sigma, noise_mode, d, seed):
        rng = np.random.default_rng(seed)
        cfg = _config(
            dataset={"kind": "gmm", "classes": 3, "dim": 3, "per_class": 10, "sep": 2.0, "seed": seed},
            encoder={"layer_dims": [3, 5, d], "noise_mode": noise_mode, "sigma2": 0.5},
            decoder={"variant": head},
            surrogate={"learn_sigma": learn_sigma},
        )
        state = build_state(cfg, np.array([0.2, 0.5, 0.3]), rng)
        state.store.values[:] = rng.uniform(-1.0, 1.0, state.store.size)
        ds = Dataset(rng.normal(size=(30, 3)), np.arange(30) % 3, 3)
        return state, ds, rng

    @pytest.mark.parametrize("d", [1, 2, 8])
    @pytest.mark.parametrize("noise_mode", ["fixed_sigma", "learned_eta"])
    @pytest.mark.parametrize("learn_sigma", [True, False])
    @pytest.mark.parametrize("head", ["softmax", "naive_bayes"])
    def test_loss_terms_evaluate_and_diagnosis_match_reference(
        self, head, learn_sigma, noise_mode, d, monkeypatch
    ):
        state, ds, rng = self._case(head, learn_sigma, noise_mode, d, seed=d)
        for mc in (1, 3, 16):
            monkeypatch.setattr(model, "EVAL_MC_SAMPLES", mc)
            expected = reference_loss_terms(state, ds, mc, model.EVAL_NOISE_SEED)
            ev = evaluate([state], ds)[0]
            assert (ev.accuracy, ev.cross_entropy, ev.kl_term) == expected

            x, labels = ds.features[:12].copy(), ds.labels[:12]
            noise = rng.standard_normal((mc, 12, d))
            batch_idx = np.arange(100, 112)
            args = (state, x, labels, noise, batch_idx)
            assert model._diagnose_nonfinite(*args) == reference_diagnose_nonfinite(*args) == 100
            x[7] = 1e200  # overflows in the encoder or the loss, unless every hidden unit is off
            x[9] = np.inf
            assert model._diagnose_nonfinite(*args) == reference_diagnose_nonfinite(*args) in (107, 109)
            x[7] = 0.0
            assert model._diagnose_nonfinite(*args) == reference_diagnose_nonfinite(*args) == 109


def _eval_stack(head, noise_mode, learn_sigma, k, d, points, n, seed):
    """``points`` random models of one config (K classes, 3-h-d net) and a random n-row split with K classes."""
    rng = np.random.default_rng(seed)
    hidden = int(rng.integers(1, 12))
    cfg = _config(encoder={"layer_dims": [3, hidden, d], "noise_mode": noise_mode, "sigma2": 0.5},
                  decoder={"variant": head}, surrogate={"learn_sigma": learn_sigma})
    priors = rng.uniform(0.1, 1.0, k)
    priors /= priors.sum()
    states = []
    for _ in range(points):
        state = build_state(cfg, priors, rng)
        state.store.values[:] = rng.uniform(-1.5, 1.5, state.store.size)
        states.append(state)
    return states, Dataset(rng.normal(size=(n, 3)), rng.integers(0, k, n), k)


def _terms(ev):
    return ev.accuracy, ev.cross_entropy, ev.kl_term


class TestStackedEvaluation:
    """One stacked evaluation of P models is, model by model, ``==`` each model's stack of one."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(head=st.sampled_from(["softmax", "naive_bayes"]), noise_mode=st.sampled_from(["fixed_sigma", "learned_eta"]),
           learn_sigma=st.booleans(), k=st.integers(2, 10), d=st.integers(1, 9), n=st.integers(1, 40),
           points=st.integers(2, 5), data=st.data())
    def test_stacked_evaluation_equals_stacks_of_one_and_the_reference(
        self, head, noise_mode, learn_sigma, k, d, n, points, data
    ):
        """K from 2 to 10 covers numpy's log-sum-exp at K >= 8; a small STACK_VALUES forces several passes."""
        states, ds = _eval_stack(head, noise_mode, learn_sigma, k, d, points, n, data.draw(st.integers(0, 2**32 - 1)))
        rows = data.draw(st.integers(1, points - 1))  # models per pass: P need not divide into it
        layer_dims = states[0].config["encoder"]["layer_dims"]
        widest = max(states[0].store.size, n * max(layer_dims), n * k * (d if head == "naive_bayes" else 1))
        passes = []
        pass_terms = model._pass_terms
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "STACK_VALUES", rows * widest)
            assert model._stack_rows(states[0], n, 1) == rows
            mp.setattr(model, "_pass_terms", lambda group, *rest: passes.append(len(group)) or pass_terms(group, *rest))
            stacked = evaluate(states, ds)
        assert passes == [rows] * (points // rows) + [points % rows] * (points % rows > 0)
        for state, got in zip(states, stacked):
            [alone] = evaluate([state], ds)
            expected = reference_loss_terms(state, ds, model.EVAL_MC_SAMPLES, model.EVAL_NOISE_SEED)
            assert _terms(got) == _terms(alone) == expected
            assert got.bounds.to_json_dict() == alone.bounds.to_json_dict()

    def test_a_failing_model_keeps_its_error_alone_and_the_others_go_on(self):
        """Non-finite codes, an overflowing eta^2, a non-finite surrogate and a NaN log-probability, in one stack."""
        states, ds = _eval_stack("naive_bayes", "learned_eta", True, 3, 2, 6, 25, seed=4)
        states[1].store.get("enc.b1")[0] = np.inf
        states[2].store.set("enc.log_eta2", np.array(800.0))
        states[3].store.get("sur.log_sigma")[1] = np.nan
        states[4].store.set("sur.mu", np.full((3, 2), 1e200))  # every score -inf
        stacked = evaluate(states, ds)
        alone = [evaluate([state], ds)[0] for state in states]
        errors = [type(ev).__name__ if isinstance(ev, Exception) else None for ev in stacked]
        assert errors == [None, "NonFiniteError", "NonFiniteError", "NonFiniteError", "NonFiniteError", None]
        for got, solo in zip(stacked, alone):
            if isinstance(got, Exception):
                assert type(got) is type(solo) and str(got) == str(solo)
            else:
                assert _terms(got) == _terms(solo) and got.bounds.to_json_dict() == solo.bounds.to_json_dict()


    def test_a_stack_of_models_that_do_not_share_a_model_or_priors_rejected(self):
        states, ds = _eval_stack("naive_bayes", "learned_eta", True, 3, 2, 2, 25, seed=5)
        with pytest.raises(ValueError, match="at least one model"):
            evaluate([], ds)
        skewed = replace(states[1], priors=states[1].priors[::-1].copy())
        with pytest.raises(ValueError, match="differ in their priors"):
            evaluate([states[0], skewed], ds)
        [other], _ = _eval_stack("naive_bayes", "learned_eta", False, 3, 2, 1, 25, seed=5)
        with pytest.raises(ValueError, match="differ in surrogate; only beta' and seed may"):
            evaluate([states[0], other], ds)
        evaluate(states, ds)  # the same model and priors, differing in their values only


    def test_a_split_that_does_not_fit_the_model_rejected(self):
        states, _ = _eval_stack("softmax", "fixed_sigma", False, 2, 2, 2, 25, seed=5)
        wide = Dataset(np.zeros((4, 4)), np.array([0, 1, 0, 1]), 2)
        with pytest.raises(ValueError, match="^dataset dimension 4 does not match encoder input 3$"):
            evaluate(states, wide)
        unknown = Dataset(np.zeros((4, 3)), np.array([0, 1, 2, 1]), 3)
        with pytest.raises(ValueError, match="^dataset labels exceed the model's class count$"):
            evaluate(states, unknown)


_POINT_FIELDS = tuple(model.TradeoffPoint.__dataclass_fields__)


class TestTradeoffPoint:
    @pytest.mark.parametrize("field", _POINT_FIELDS)
    @pytest.mark.parametrize("value", [True, "0.5", None, float("nan"), float("inf"), -float("inf"), 10**400, -10**400])
    def test_field_that_is_not_a_finite_number_rejected_naming_it(self, field, value):
        with pytest.raises(ValueError, match=f"non-finite or non-numeric values for {field}$"):
            model.TradeoffPoint(**dict(dict.fromkeys(_POINT_FIELDS, 0.5), **{field: value}))

    def test_names_every_bad_field_before_the_accuracy_range(self):
        with pytest.raises(ValueError, match="values for ce_test, acc_test$"):
            model.TradeoffPoint(**dict(dict.fromkeys(_POINT_FIELDS, 0.5), ce_test=math.inf, acc_test=False))
        with pytest.raises(ValueError, match="accuracy must lie in"):
            model.TradeoffPoint(**dict(dict.fromkeys(_POINT_FIELDS, 1), acc_test=2))


class TestSplitsMustFit:
    @pytest.mark.parametrize("priors", ["train", "all"])
    def test_test_split_label_beyond_the_train_classes_fails_before_training(self, monkeypatch, priors):
        monkeypatch.setattr(model, "_train_stack", lambda *args: pytest.fail("trained"))
        cfg = _config(surrogate={"priors": priors})
        train_ds = Dataset(np.eye(4, 2), np.array([0, 1, 0, 1]), 2)
        with pytest.raises(ValueError, match="the test split has label 2, but the train split has 2 classes"):
            train([cfg], train_ds, Dataset(np.zeros((3, 2)), np.array([0, 1, 2]), 3))

    def test_test_split_of_another_dimension_fails_before_training(self, monkeypatch):
        monkeypatch.setattr(model, "_train_stack", lambda *args: pytest.fail("trained"))
        train_ds = Dataset(np.eye(4, 2), np.array([0, 1, 0, 1]), 2)
        with pytest.raises(ValueError, match="dimension 2, the test split has 3"):
            train([_config()], train_ds, Dataset(np.zeros((2, 3)), np.array([0, 1]), 2))


class TestSweep:
    def test_single_point_matches_standalone_run(self):
        cfg = _config(optim={"steps": 25, "batch": 16, "log_every": 10})
        [(point, run)] = sweep(cfg, [0], [0.5])
        solo = dict(cfg)
        solo["seed"] = derive_seed(cfg["seed"], 0)
        solo["loss"] = {"beta_prime": 0.5, "mc_samples": cfg["loss"]["mc_samples"]}
        train_ds, test_ds = data_io.dataset_from_config(cfg["dataset"])
        result = train([validate_config(solo)], train_ds, test_ds)[0]
        _same_run(run, result)
        ev = evaluate([result.state], test_ds)[0]
        assert point.acc_test == ev.accuracy
        assert point.ce_test == ev.cross_entropy
        assert point.ixt == ev.bounds.unconditional

    def test_points_at_equal_index_and_value_are_identical(self):
        cfg = _config(optim={"steps": 10, "batch": 16, "log_every": 10})
        [(first, _)] = sweep(cfg, [0], [0.0])
        (zeroth, _), (other, _) = sweep(cfg, [0, 1], [0.0, 0.0])
        assert first == zeroth
        # same beta' at a different index trains with a different derived seed
        assert other != zeroth

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep(_config(), [], [])
        with pytest.raises(ValueError):
            sweep(_config(), [0], [-1.0])


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        seeds = [derive_seed(7, i) for i in range(5)]
        assert seeds == [derive_seed(7, i) for i in range(5)]
        assert len(set(seeds)) == 5
        assert all(0 <= s < 2**64 for s in seeds)

    def test_base_seed_matters(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)
