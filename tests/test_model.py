"""Encoder, decoder heads, training determinism, evaluation, and sweeps."""

import math

import numpy as np
import pytest

from cib import data_io, model
from cib.data_io import Dataset, validate_config
from cib.diffcore import Tape, grad_check
from cib.gaussians import ClassSurrogate, log_pdf, surrogate_component
from helpers import chain_loss_graph
from cib.model import (
    NonFiniteLossError,
    build_state,
    decode_naive_bayes,
    decode_softmax,
    derive_seed,
    evaluate,
    loss_terms,
    make_loss_fn,
    run_sweep_point,
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
        for x in (np.zeros(2), np.array([5.0, -2.0])):
            np.testing.assert_allclose(state.encoder.encode(x).mean, [3.0, -1.0], atol=1e-15)

    def test_single_identity_layer_passes_input(self):
        cfg = _config(encoder={"layer_dims": [2, 2]})
        state = build_state(cfg, np.array([0.5, 0.5]))
        state.store.set("enc.W0", np.eye(2))
        g = state.encoder.encode(np.array([1.0, 2.0]))
        np.testing.assert_array_equal(g.mean, [1.0, 2.0])
        assert g.log_var[0] == pytest.approx(math.log(1.0), abs=1e-15)

    def test_fixed_sigma_variance(self):
        cfg = _config(encoder={"layer_dims": [2, 2], "sigma2": 0.25})
        state = build_state(cfg, np.array([0.5, 0.5]))
        g = state.encoder.encode(np.zeros(2))
        np.testing.assert_allclose(np.exp(g.log_var), 0.25, atol=1e-15)

    def test_learned_eta_adds_floor(self):
        cfg = _config(encoder={"layer_dims": [2, 2], "noise_mode": "learned_eta", "sigma2": 1e-4})
        state = build_state(cfg, np.array([0.5, 0.5]))
        state.store.set("enc.log_eta2", np.array(math.log(0.5)))
        assert state.encoder.eta2() == pytest.approx(0.5, abs=1e-15)
        assert state.encoder.log_var() == pytest.approx(math.log(0.5 + 1e-4), abs=1e-15)

    def test_dimension_mismatch_rejected(self):
        state = _state()
        with pytest.raises(ValueError):
            state.encoder.encode(np.zeros(3))

    def test_mean_gradient_wrt_weights_passes_check(self):
        state = _state(seed=5)
        rng = np.random.default_rng(1)
        x = rng.uniform(-2, 2, (3, 2))
        weights = rng.uniform(-1, 1, (3, 2))

        def lossfn(store):
            tape = Tape(store)
            means = state.encoder.means_graph(tape, x)
            return tape, tape.sum_all(tape.mul(means, tape.const(weights)))

        report = grad_check(lossfn, state.store, eps=1e-5, tol=1e-5)
        assert report.passed, f"max rel {report.max_rel_error:.2e} at {report.worst_name}"


class TestDecodeNaiveBayes:
    def test_symmetric_classes_split_evenly_at_origin(self):
        s = ClassSurrogate(np.array([[1.0, 1.0], [-1.0, -1.0]]), np.zeros(2), np.array([0.5, 0.5]))
        np.testing.assert_allclose(decode_naive_bayes(s, np.zeros(2)), [0.5, 0.5], atol=1e-15)

    def test_class_mean_is_classified_to_its_class(self):
        s = ClassSurrogate(
            np.array([[4.0, 0.0], [-4.0, 0.0], [0.0, 4.0]]), np.zeros(3), np.full(3, 1 / 3)
        )
        for y in range(3):
            probs = decode_naive_bayes(s, s.class_means[y])
            assert int(np.argmax(probs)) == y

    def test_matches_direct_bayes_rule_from_log_pdf(self):
        rng = np.random.default_rng(4)
        s = ClassSurrogate(
            rng.uniform(-2, 2, (3, 2)), rng.uniform(-0.5, 0.5, 3), np.array([0.2, 0.5, 0.3])
        )
        for _ in range(20):
            t = rng.uniform(-3, 3, 2)
            joint = np.array(
                [s.priors[y] * math.exp(log_pdf(surrogate_component(s, y), t)) for y in range(3)]
            )
            expected = joint / joint.sum()
            np.testing.assert_allclose(decode_naive_bayes(s, t), expected, atol=1e-12, rtol=0)

    def test_output_is_a_distribution_even_far_from_means(self):
        s = ClassSurrogate(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.zeros(2), np.array([0.5, 0.5]))
        for t in (np.array([1e4, -1e4]), np.array([-250.0, 3.0]), np.zeros(2)):
            probs = decode_naive_bayes(s, t)
            assert np.all(probs >= 0.0)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_argmax_is_shift_invariant_in_log_scores(self):
        # log-space normalization: scaling all priors cannot change the argmax
        rng = np.random.default_rng(11)
        means = rng.uniform(-2, 2, (3, 2))
        s = ClassSurrogate(means, np.zeros(3), np.full(3, 1 / 3))
        for _ in range(10):
            t = rng.uniform(-5, 5, 2)
            base = decode_naive_bayes(s, t)
            nearest = int(np.argmin(np.linalg.norm(means - t, axis=1)))
            assert int(np.argmax(base)) == nearest



class TestDecodeSoftmax:
    def test_zero_parameters_give_uniform(self):
        cfg = _config(decoder={"variant": "softmax"}, encoder={"layer_dims": [2, 2]})
        state = build_state(cfg, np.full(3, 1 / 3))
        np.testing.assert_allclose(
            decode_softmax(state.head, np.array([0.7, -0.3])), np.full(3, 1 / 3), atol=1e-15
        )

    def test_large_bias_dominates(self):
        cfg = _config(decoder={"variant": "softmax"}, encoder={"layer_dims": [2, 2]})
        state = build_state(cfg, np.array([0.5, 0.5]))
        state.store.set("head.b", np.array([50.0, 0.0]))
        probs = decode_softmax(state.head, np.zeros(2))
        assert probs[0] > 1.0 - 1e-12

    def test_normalization_on_random_inputs(self):
        rng = np.random.default_rng(3)
        cfg = _config(decoder={"variant": "softmax"}, encoder={"layer_dims": [2, 2]})
        state = build_state(cfg, np.array([0.5, 0.5]), rng)
        for _ in range(25):
            probs = decode_softmax(state.head, rng.uniform(-4, 4, 2))
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(probs >= 0.0)


class TestHeadAccounting:
    def test_naive_bayes_head_owns_no_parameters(self):
        state = _state()
        assert state.head.owned_param_names() == []
        assert not any(name.startswith("head.") for name in state.store.names())

    def test_softmax_head_owns_its_readout(self):
        cfg = _config(decoder={"variant": "softmax"})
        state = build_state(cfg, np.array([0.5, 0.5]))
        assert state.head.owned_param_names() == ["head.W", "head.b"]

    def test_gradients_flow_only_to_encoder_and_surrogate_for_nb_head(self):
        rng = np.random.default_rng(6)
        state = _state(seed=8)
        x = rng.uniform(-2, 2, (5, 2))
        labels = rng.integers(0, 2, 5)
        noise = rng.standard_normal((1, 5, 2))
        tape = Tape(state.store)
        total, _, _ = state.loss_graph(tape, x, labels, 1.0, noise)
        grad = tape.backward(total)
        assert grad.shape == (state.store.size,)
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


class TestFusedLossGraph:
    """The loss graph built from fused ops equals its primitive-op chain bit for bit."""

    @pytest.mark.parametrize("head", ["softmax", "naive_bayes"])
    @pytest.mark.parametrize("learn_sigma", [True, False])
    @pytest.mark.parametrize("noise_mode", ["fixed_sigma", "learned_eta"])
    @pytest.mark.parametrize("mc_samples", [1, 3])
    def test_values_and_gradient_match_primitive_chain(self, head, learn_sigma, noise_mode, mc_samples):
        rng = np.random.default_rng(5)
        cfg = _config(
            encoder={"layer_dims": [3, 5, 2], "noise_mode": noise_mode, "sigma2": 0.5},
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
        fused, chain = Tape(state.store), Tape(state.store)
        fused_nodes = state.loss_graph(fused, x, labels, 0.8, noise)
        chain_nodes = chain_loss_graph(state, chain, x, labels, 0.8, noise)
        for f, c in zip(fused_nodes, chain_nodes):
            assert fused.val(f) == chain.val(c)
        assert np.array_equal(fused.backward(fused_nodes[0]), chain.backward(chain_nodes[0]))
        assert len(fused) < len(chain)

    @pytest.mark.parametrize("head", ["softmax", "naive_bayes"])
    def test_training_matches_primitive_chain(self, head, monkeypatch):
        cfg = _config(decoder={"variant": head}, encoder={"layer_dims": [2, 4, 2], "noise_mode": "learned_eta"},
                      loss={"beta_prime": 1.0, "mc_samples": 2})
        ds_train, _ = data_io.dataset_from_config(cfg["dataset"])
        fused = train(cfg, ds_train)
        monkeypatch.setattr(model.ModelState, "loss_graph", chain_loss_graph)
        chained = train(cfg, ds_train)
        assert np.array_equal(fused.state.store.values, chained.state.store.values)
        assert fused.metrics == chained.metrics


class TestTrain:
    def test_zero_steps_returns_initialization(self):
        cfg = _config(optim={"steps": 0, "batch": 16})
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        result = train(cfg, train_ds)
        fresh = build_state(cfg, model._empirical_priors(train_ds),
                            np.random.default_rng(derive_seed(cfg["seed"], 0)))
        np.testing.assert_array_equal(result.state.store.values, fresh.store.values)
        assert len(result.metrics) == 1 and result.metrics[0].step == 0

    def test_same_seed_runs_are_bit_identical(self):
        cfg = _config()
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        a, b = train(cfg, train_ds), train(cfg, train_ds)
        assert a.metrics == b.metrics
        np.testing.assert_array_equal(a.state.store.values, b.state.store.values)

    def test_full_batch_is_invariant_to_sample_order(self):
        # per_class 60 over two classes: batch 120 covers the whole split
        cfg = _config(optim={"steps": 15, "batch": 120})
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        a = train(cfg, train_ds, shuffle_seed=1)
        b = train(cfg, train_ds, shuffle_seed=999)
        np.testing.assert_array_equal(a.state.store.values, b.state.store.values)
        assert a.metrics == b.metrics

    def test_minibatch_depends_on_shuffle_stream(self):
        cfg = _config(optim={"steps": 15, "batch": 16})
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        a = train(cfg, train_ds, shuffle_seed=1)
        b = train(cfg, train_ds, shuffle_seed=999)
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
        result = train(cfg, train_ds, test_ds)
        ev = evaluate(result.state, test_ds)
        # generator's analytic Bayes accuracy is ~0.977; demand most of it
        assert ev.accuracy >= 0.95

    def test_nonfinite_loss_aborts_with_diagnostics(self):
        cfg = _config(optim={"steps": 50, "batch": 16, "lr": 1e12})
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        with pytest.raises(NonFiniteLossError) as err:
            train(cfg, train_ds)
        assert err.value.step is not None
        assert err.value.sample_index is not None

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
            train(_config(), ds)

    def test_dimension_mismatch_rejected(self):
        feats = np.random.default_rng(0).normal(size=(10, 3))
        ds = Dataset(feats, np.arange(10) % 2, 2)
        with pytest.raises(ValueError, match="dimension"):
            train(_config(), ds)

    def test_alternating_mode_sets_surrogate_to_class_moments(self):
        cfg = _config(surrogate={"learn_sigma": True, "update": "alternating"})
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        result = train(cfg, train_ds)
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
        result = train(cfg, train_ds)
        assert result.state.encoder.eta2() > 0.0
        assert math.isfinite(result.state.encoder.log_var())

    def test_beta_config_is_converted_to_beta_prime(self):
        cfg = _config(loss={"beta": 0.5}, optim={"steps": 2, "batch": 16})
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        result = train(cfg, train_ds)
        assert result.beta_prime == pytest.approx(1.0, abs=1e-15)
        assert result.metrics[-1].beta_prime == pytest.approx(1.0, abs=1e-15)

    def test_fixed_surrogate_sigma_drops_the_parameter(self):
        cfg = _config(surrogate={"learn_sigma": False, "update": "gradient"})
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        result = train(cfg, train_ds)
        assert "sur.log_sigma" not in result.state.store.names()
        np.testing.assert_array_equal(result.state.surrogate().class_log_sigma, [0.0, 0.0])
        assert result.metrics[-1].accuracy > 0.5

    def test_sgd_optimizer_runs_deterministically(self):
        cfg = _config(optim={"kind": "sgd", "lr": 0.05, "steps": 30, "batch": 16})
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        a, b = train(cfg, train_ds), train(cfg, train_ds)
        np.testing.assert_array_equal(a.state.store.values, b.state.store.values)
        assert a.metrics[-1].total < a.metrics[0].total

    def test_priors_knob_can_pool_both_splits(self):
        rng = np.random.default_rng(0)
        train_ds = Dataset(rng.normal(size=(30, 2)), np.repeat([0, 1], [10, 20]), 2)
        test_ds = Dataset(rng.normal(size=(30, 2)), np.repeat([0, 1], [25, 5]), 2)
        cfg_train = _config(optim={"steps": 0, "batch": 8})
        res_train = train(cfg_train, train_ds, test_ds)
        np.testing.assert_allclose(res_train.state.priors, [10 / 30, 20 / 30], atol=1e-15)
        cfg_all = _config(
            optim={"steps": 0, "batch": 8},
            surrogate={"learn_sigma": True, "update": "gradient", "priors": "all"},
        )
        res_all = train(cfg_all, train_ds, test_ds)
        np.testing.assert_allclose(res_all.state.priors, [35 / 60, 25 / 60], atol=1e-15)


class TestEvaluate:
    def test_final_logged_metrics_match_evaluate_exactly(self):
        cfg = _config()
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        result = train(cfg, train_ds)
        final = result.metrics[-1]
        ev = evaluate(result.state, train_ds)
        assert final.cross_entropy == ev.cross_entropy
        assert final.kl_term == ev.kl_term
        assert final.accuracy == ev.accuracy
        assert final.total == ev.cross_entropy + result.beta_prime * ev.kl_term

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
        hits = sum(
            int(np.argmax(decode_naive_bayes(state.surrogate(), means[i]))) == labels[i]
            for i in range(10)
        )
        assert evaluate(state, ds).accuracy == pytest.approx(hits / 10, abs=0)

    def test_loss_terms_match_evaluate_without_bounds(self):
        cfg = _config()
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        state = train(cfg, train_ds).state
        terms, ev = loss_terms(state, train_ds), evaluate(state, train_ds)
        assert terms.bounds is None and ev.bounds is not None
        assert (terms.accuracy, terms.cross_entropy, terms.kl_term) == (
            ev.accuracy, ev.cross_entropy, ev.kl_term
        )

    def test_evaluate_is_deterministic(self):
        cfg = _config()
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        result = train(cfg, train_ds)
        a, b = evaluate(result.state, train_ds), evaluate(result.state, train_ds)
        assert (a.accuracy, a.cross_entropy, a.kl_term) == (b.accuracy, b.cross_entropy, b.kl_term)

    def test_sampled_predictions_flag_changes_points_not_contract(self):
        cfg = _config()
        train_ds, _ = data_io.dataset_from_config(cfg["dataset"])
        result = train(cfg, train_ds)
        ev = evaluate(result.state, train_ds, sample_predictions=True)
        assert 0.0 <= ev.accuracy <= 1.0


class TestSweep:
    def test_single_point_matches_standalone_run(self):
        cfg = _config(optim={"steps": 25, "batch": 16, "log_every": 10})
        points = sweep(cfg, [0.5])
        solo = dict(cfg)
        solo["seed"] = derive_seed(cfg["seed"], 0)
        solo["loss"] = {"beta_prime": 0.5, "mc_samples": cfg["loss"]["mc_samples"]}
        train_ds, test_ds = data_io.dataset_from_config(cfg["dataset"])
        result = train(validate_config(solo), train_ds, test_ds)
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
            run_sweep_point(_config(), 0, -1.0)


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        seeds = [derive_seed(7, i) for i in range(5)]
        assert seeds == [derive_seed(7, i) for i in range(5)]
        assert len(set(seeds)) == 5
        assert all(0 <= s < 2**64 for s in seeds)

    def test_base_seed_matters(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)
