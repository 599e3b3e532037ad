"""Encoder, decoder heads, training determinism, evaluation, and sweeps."""

import collections
import math

import numpy as np
import pytest

from cib import data_io, diffcore, gaussians, model, objectives
from cib.data_io import Dataset, validate_config
from cib.diffcore import NonFiniteError, Tape, grad_check
from helpers import (
    ChainTape,
    chain_loss_graph,
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
    loss_terms,
    make_loss_fn,
    sweep,
    sweep_runs,
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
        np.testing.assert_allclose(state.encoder.encode_batch(x), [[3.0, -1.0], [3.0, -1.0]], atol=1e-15)

    def test_single_identity_layer_passes_input(self):
        cfg = _config(encoder={"layer_dims": [2, 2]})
        state = build_state(cfg, np.array([0.5, 0.5]))
        state.store.set("enc.W0", np.eye(2))
        np.testing.assert_array_equal(state.encoder.encode_batch(np.array([[1.0, 2.0]])), [[1.0, 2.0]])
        assert state.encoder.log_var() == pytest.approx(math.log(1.0), abs=1e-15)

    def test_fixed_sigma_variance(self):
        cfg = _config(encoder={"layer_dims": [2, 2], "sigma2": 0.25})
        state = build_state(cfg, np.array([0.5, 0.5]))
        assert math.exp(state.encoder.log_var()) == pytest.approx(0.25, abs=1e-15)

    def test_learned_eta_adds_floor(self):
        cfg = _config(encoder={"layer_dims": [2, 2], "noise_mode": "learned_eta", "sigma2": 1e-4})
        state = build_state(cfg, np.array([0.5, 0.5]))
        state.store.set("enc.log_eta2", np.array(math.log(0.5)))
        assert state.encoder.eta2() == pytest.approx(0.5, abs=1e-15)
        assert state.encoder.log_var() == pytest.approx(math.log(0.5 + 1e-4), abs=1e-15)

    def test_overflowing_learned_noise_raises_nonfinite(self):
        cfg = _config(encoder={"layer_dims": [2, 2], "noise_mode": "learned_eta"})
        state = build_state(cfg, np.array([0.5, 0.5]))
        state.store.set("enc.log_eta2", np.array(1000.0))
        with pytest.raises(NonFiniteError, match="overflows"):
            state.encoder.eta2()
        with pytest.raises(NonFiniteError, match="overflows"):
            state.encoder.log_var()

    def test_dimension_mismatch_rejected(self):
        state = _state()
        with pytest.raises(ValueError):
            state.encoder.encode_batch(np.zeros((1, 3)))

    def test_mean_gradient_wrt_weights_passes_check(self):
        """The tape's net gives ``encode_batch``'s means; with beta' = 0 its weights see only the draws."""
        state = _state(seed=5)
        rng = np.random.default_rng(1)
        x = rng.uniform(-2, 2, (3, 2))
        labels = rng.integers(0, 2, 3)
        noise = rng.standard_normal((2, 3, 2))
        tape = Tape(stack_of_one(state.store))
        enc = state.encoder
        means = tape.mlp(x[None], [name for pair in enc.weight_names() for name in pair], enc.activation)
        assert np.array_equal(means[0], enc.encode_batch(x))
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
    with monkeypatch.context() as patch:
        patch.setattr(model, "Tape", _ReferenceTape)
        patch.setattr(model.ModelState, "loss_graph", _reference_loss_graph(per_draw_ops))
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
    ], ids=["softmax", "naive_bayes", "relu-3-layers-S3-fixed-sigma-y", "tanh-softmax-eta", "alternating", "sgd"])
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

    def test_full_batch_is_invariant_to_sample_order(self):
        # per_class 60 over two classes: batch 120 covers the whole split
        cfg = _config(optim={"steps": 15, "batch": 120})
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        a = train([cfg], train_ds, shuffle_seed=1)[0]
        b = train([cfg], train_ds, shuffle_seed=999)[0]
        np.testing.assert_array_equal(a.state.store.values, b.state.store.values)
        assert a.metrics == b.metrics

    def test_minibatch_depends_on_shuffle_stream(self):
        cfg = _config(optim={"steps": 15, "batch": 16})
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        a = train([cfg], train_ds, shuffle_seed=1)[0]
        b = train([cfg], train_ds, shuffle_seed=999)[0]
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
        ev = evaluate(result.state, test_ds)
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
        assert np.all(np.isfinite(state.encoder.encode_batch(x)))
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
        means = result.state.encoder.encode_batch(train_ds.features)
        var = math.exp(result.state.encoder.log_var())
        for y in (0, 1):
            rows = means[train_ds.labels == y]
            np.testing.assert_allclose(result.state.surrogate().class_means[y], rows.mean(axis=0), atol=1e-12)
            expected_sigma2 = float(np.mean((rows - rows.mean(axis=0)) ** 2)) + var
            assert result.state.surrogate().class_log_sigma[y] == pytest.approx(
                0.5 * math.log(expected_sigma2), abs=1e-12
            )

    def test_learned_eta_mode_trains_and_keeps_noise_positive(self):
        cfg = _config(encoder={"layer_dims": [2, 4, 2], "noise_mode": "learned_eta", "sigma2": 1e-4})
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        result = train([cfg], train_ds)[0]
        assert result.state.encoder.eta2() > 0.0
        assert math.isfinite(result.state.encoder.log_var())

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
        np.testing.assert_array_equal(result.state.surrogate().class_log_sigma, [0.0, 0.0])
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
    """The configs of a sweep's points over ``beta_primes``, as :func:`model.sweep_runs` makes them."""
    loss = {key: value for key, value in cfg["loss"].items() if key not in ("beta", "beta_prime")}
    return [validate_config({**cfg, "loss": {**loss, "beta_prime": bp}, "seed": derive_seed(cfg["seed"], i)})
            for i, bp in enumerate(beta_primes)]


def _same_run(stacked, alone):
    """Every metrics row, the final values, beta' and any error equal those of the run trained alone.

    The stacked run's encoder reads its state's one store, also after failed runs left the stack.
    """
    assert stacked.metrics == alone.metrics and stacked.beta_prime == alone.beta_prime
    assert np.array_equal(stacked.state.store.values, alone.state.store.values)
    assert stacked.state.encoder.store is stacked.state.store
    assert type(stacked.error) is type(alone.error) and str(stacked.error) == str(alone.error)
    assert getattr(stacked.error, "step", None) == getattr(alone.error, "step", None)


class TestLockstep:
    """Runs trained as one stack are, point by point, ``==`` the runs trained one config at a time."""

    @pytest.mark.parametrize("shuffle_seed", [None, 11])
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
    def test_stacked_runs_equal_runs_alone(self, overrides, shuffle_seed):
        configs = _points(_config(**overrides), [0.0, 0.3, 1.0, 3.0, 10.0])
        train_ds, test_ds = data_io.dataset_from_config(configs[0]["dataset"])
        stacked = train(configs, train_ds, test_ds, shuffle_seed=shuffle_seed)
        assert len(stacked) == 5
        for cfg, run in zip(configs, stacked):
            assert run.error is None
            _same_run(run, train([cfg], train_ds, test_ds, shuffle_seed=shuffle_seed)[0])

    def test_failing_points_leave_the_stack_and_the_rest_go_on(self):
        """Points fail at different steps, from the loss or from evaluation; each run equals its run alone."""
        cfg = _config(encoder={"layer_dims": [2, 3, 2], "noise_mode": "learned_eta"},
                      optim={"kind": "sgd", "lr": 30.0, "steps": 20, "batch": 8, "log_every": 3},
                      dataset={"kind": "gmm", "classes": 2, "dim": 2, "per_class": 12, "sep": 4.0, "seed": 3},
                      seed=3)
        configs = _points(cfg, [0.0, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 1e3, 1e4])
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        with np.errstate(all="ignore"):
            stacked = train(configs, train_ds)
            alone = [train([c], train_ds)[0] for c in configs]
        failed = {type(run.error).__name__ for run in alone if run.error is not None}
        assert failed == {"NonFiniteLossError", "NonFiniteError", "ValueError"}
        assert len({run.error.step for run in alone if isinstance(run.error, NonFiniteLossError)}) > 1
        assert any(run.error is None for run in alone)
        for run, solo in zip(stacked, alone):
            _same_run(run, solo)

    @pytest.mark.parametrize("fail_step", [0, 2, 3])
    def test_a_failed_surrogate_update_ends_its_run_at_once(self, fail_step, monkeypatch):
        """A point whose moment step fails keeps that error and logs no row at that step, even on a log step."""
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

        alone = [train([c], train_ds)[0] for c in configs]
        monkeypatch.setattr(model, "_alternating_moment_step", failing_moment_step)
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
        lockstep = model._Lockstep
        monkeypatch.setattr(model, "_Lockstep", lambda runs, *rest: stacks.append(len(runs)) or lockstep(runs, *rest))
        stacked = train(configs, train_ds)
        assert stacks == [2, 2, 1]
        for cfg, run in zip(configs, stacked):
            _same_run(run, train([cfg], train_ds)[0])

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
        ev = evaluate(result.state, train_ds)
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
        point = model.tradeoff_point(run, test_ds)
        fresh = loss_terms(run.state, train_ds)
        final = run.metrics[-1]
        assert (final.cross_entropy, final.kl_term, final.accuracy) == (
            fresh.cross_entropy, fresh.kl_term, fresh.accuracy)
        assert point.ce_train == fresh.cross_entropy
        assert point.kl_train == fresh.kl_term
        ev = evaluate(run.state, test_ds)
        assert (point.ce_test, point.kl_test, point.acc_test) == (ev.cross_entropy, ev.kl_term, ev.accuracy)
        assert (point.ixt, point.ixt_given_y) == (ev.bounds.unconditional, ev.bounds.aggregate)

    def test_perfect_separation_gives_unit_accuracy(self):
        cfg = _config(encoder={"layer_dims": [2, 2]})
        state = build_state(cfg, np.array([0.5, 0.5]))
        state.store.set("enc.W0", np.eye(2))
        state.store.set("sur.mu", np.array([[8.0, 0.0], [-8.0, 0.0]]))
        feats = np.concatenate([np.full((5, 2), [8.0, 0.0]), np.full((5, 2), [-8.0, 0.0])])
        ds = Dataset(feats, np.repeat([0, 1], 5), 2)
        assert evaluate(state, ds).accuracy == 1.0

    def test_accuracy_matches_hand_count_on_ten_samples(self):
        rng = np.random.default_rng(9)
        cfg = _config(encoder={"layer_dims": [2, 2]})
        state = build_state(cfg, np.array([0.5, 0.5]), rng)
        state.store.set("sur.mu", rng.uniform(-1, 1, (2, 2)))
        feats = rng.uniform(-2, 2, (10, 2))
        labels = rng.integers(0, 2, 10)
        ds = Dataset(feats, labels, 2)
        means = state.encoder.encode_batch(feats)
        hits = sum(int(np.argmax(state.log_probs(means[i : i + 1])[0])) == labels[i] for i in range(10))
        assert int(np.sum(np.argmax(state.log_probs(means), axis=1) == labels)) == hits
        assert evaluate(state, ds).accuracy == pytest.approx(hits / 10, abs=0)

    def test_loss_terms_match_evaluate_without_bounds(self):
        cfg = _config()
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        state = train([cfg], train_ds)[0].state
        terms, ev = loss_terms(state, train_ds), evaluate(state, train_ds)
        assert terms.bounds is None and ev.bounds is not None
        assert (terms.accuracy, terms.cross_entropy, terms.kl_term) == (
            ev.accuracy, ev.cross_entropy, ev.kl_term
        )

    def test_evaluate_is_deterministic(self):
        cfg = _config()
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        result = train([cfg], train_ds)[0]
        a, b = evaluate(result.state, train_ds), evaluate(result.state, train_ds)
        assert (a.accuracy, a.cross_entropy, a.kl_term) == (b.accuracy, b.cross_entropy, b.kl_term)

    def test_zero_probability_true_class_gives_infinite_cross_entropy(self, monkeypatch):
        state = _state()
        ds = Dataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]), 2)
        monkeypatch.setattr(state, "log_probs", lambda t: np.tile([0.0, -np.inf], (t.shape[0], 1)))
        assert loss_terms(state, ds).cross_entropy == np.inf

    def test_nan_log_probability_rejected(self, monkeypatch):
        state = _state()
        ds = Dataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]), 2)
        monkeypatch.setattr(state, "log_probs", lambda t: np.full((t.shape[0], 2), np.nan))
        with pytest.raises(ValueError, match="finite or -inf"):
            loss_terms(state, ds)

    def test_negative_kl_rejected(self, monkeypatch):
        state = _state()
        ds = Dataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]), 2)
        real = objectives.cib_loss

        def shifted(*args):
            true_lp, kl = real(*args)
            return true_lp, np.full_like(kl, -1e-6)

        monkeypatch.setattr(objectives, "cib_loss", shifted)
        for fn in (loss_terms, evaluate):
            with pytest.raises(ValueError, match="kl_term must be nonnegative"):
                fn(state, ds)

    def test_nonfinite_codes_rejected(self):
        state = _state()
        state.store.set("enc.b0", np.full(4, 1e300))
        state.store.set("enc.W1", np.full((2, 4), 1e300))  # the second layer overflows
        ds = Dataset(np.zeros((4, 2)), np.array([0, 1, 0, 1]), 2)
        for fn in (loss_terms, evaluate):
            with np.errstate(over="ignore"), pytest.raises(ValueError, match="codes must be finite"):
                fn(state, ds)


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
            terms, ev = loss_terms(state, ds), evaluate(state, ds)
            assert (terms.accuracy, terms.cross_entropy, terms.kl_term) == expected
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
        points = sweep(cfg, [0.5])
        solo = dict(cfg)
        solo["seed"] = derive_seed(cfg["seed"], 0)
        solo["loss"] = {"beta_prime": 0.5, "mc_samples": cfg["loss"]["mc_samples"]}
        train_ds, test_ds = data_io.dataset_from_config(cfg["dataset"])
        result = train([validate_config(solo)], train_ds, test_ds)[0]
        ev = evaluate(result.state, test_ds)
        assert points[0].acc_test == ev.accuracy
        assert points[0].ce_test == ev.cross_entropy
        assert points[0].ixt == ev.bounds.unconditional

    def test_points_at_equal_index_and_value_are_identical(self):
        cfg = _config(optim={"steps": 10, "batch": 16, "log_every": 10})
        first = sweep(cfg, [0.0])
        both = sweep(cfg, [0.0, 0.0])
        assert first[0] == both[0]
        # same beta' at a different index trains with a different derived seed
        assert both[1] != both[0]

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep(_config(), [])
        with pytest.raises(ValueError):
            sweep_runs(_config(), [0], [-1.0])


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        seeds = [derive_seed(7, i) for i in range(5)]
        assert seeds == [derive_seed(7, i) for i in range(5)]
        assert len(set(seeds)) == 5
        assert all(0 <= s < 2**64 for s in seeds)

    def test_base_seed_matters(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)
