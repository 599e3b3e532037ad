"""Training-loss assembly and the beta -> beta' map."""

import math

import numpy as np
import pytest

from cib import discrete_oracle as oracle
from cib.diffcore import ParamStore, Tape, grad_check
from cib.gaussians import ClassSurrogate
from cib.objectives import beta_to_beta_prime, cib_loss, cib_loss_graph
from helpers import (
    DiagGaussian,
    gaussian_quadrature_kl,
    loss_rows,
    numpy_logsumexp_rows,
    random_encoder,
    random_joint,
    random_product_surrogate,
    shared_by_rows,
    stack_of_one,
)


class TestBetaMaps:
    def test_endpoints_and_midpoint(self):
        assert beta_to_beta_prime(0.0) == 0.0
        assert beta_to_beta_prime(0.5) == pytest.approx(1.0, abs=1e-15)
        assert beta_to_beta_prime(0.9) == pytest.approx(9.0, abs=1e-12)

    def test_beta_of_one_rejected_with_reason(self):
        with pytest.raises(ValueError, match="compression"):
            beta_to_beta_prime(1.0)

    def test_out_of_range_rejected(self):
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError):
                beta_to_beta_prime(bad)


def _toy_surrogate():
    return ClassSurrogate(
        class_means=np.array([[1.0, 0.0], [-1.0, 0.5]]),
        class_log_sigma=np.array([0.1, -0.2]),
        priors=np.array([0.5, 0.5]),
    )


def _uniform_decoder(k):
    def decoder(t):
        return np.full((t.shape[0], k), -math.log(k))

    return decoder


class TestCibLoss:
    def test_uniform_decoder_gives_log_k_per_draw(self):
        rng = np.random.default_rng(0)
        noise = rng.standard_normal((3, 4, 2))
        lp, kl = cib_loss([0, 1, 0, 1], rng.uniform(-1, 1, (4, 2)), 0.3, _uniform_decoder(2), _toy_surrogate(), noise)
        assert lp.shape == (4, 3) and kl.shape == (4,)
        assert float(-np.mean(lp)) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_matching_surrogate_gives_zero_kl(self):
        s = _toy_surrogate()
        _, kl = cib_loss([0], s.class_means[[0]], 2.0 * s.class_log_sigma[0], _uniform_decoder(2), s,
                         np.zeros((1, 1, 2)))
        assert kl.tolist() == [0.0]

    def test_two_sample_batch_matches_manual_summation(self):
        rng = np.random.default_rng(77)
        s = _toy_surrogate()
        means = np.array([[0.3, -0.4], [-1.2, 0.9]])
        log_var = -0.35
        labels = [1, 0]
        mc = 2
        noise = rng.standard_normal((mc, 2, 2))
        w = rng.uniform(-1, 1, (2, 2))
        b = rng.uniform(-1, 1, 2)

        def decoder(t):
            scores = t @ w.T + b
            mx = scores.max(axis=1, keepdims=True)
            return scores - (mx + np.log(np.exp(scores - mx).sum(axis=1, keepdims=True)))

        lp, kl = cib_loss(labels, means, log_var, decoder, s, noise)

        # independent per-sample summation with scalar building blocks
        std, v = math.exp(0.5 * log_var), math.exp(log_var)
        for i, y in enumerate(labels):
            for smp in range(mc):
                t = means[i] + std * noise[smp, i]
                assert lp[i, smp] == pytest.approx(decoder(t[None, :])[0, y], abs=1e-12)
            v_y = math.exp(2.0 * s.class_log_sigma[y])
            kl_i = sum(
                0.5 * (v / v_y + (means[i, j] - s.class_means[y, j]) ** 2 / v_y - 1.0 - math.log(v / v_y))
                for j in range(2)
            )
            assert kl[i] == pytest.approx(kl_i, abs=1e-12)

    def test_deterministic_for_fixed_noise(self):
        rng = np.random.default_rng(5)
        noise = rng.standard_normal((2, 3, 2))
        args = ([0, 1, 1], rng.uniform(-1, 1, (3, 2)), 0.2, _uniform_decoder(2), _toy_surrogate(), noise)
        (lp1, kl1), (lp2, kl2) = cib_loss(*args), cib_loss(*args)
        assert lp1.tolist() == lp2.tolist() and kl1.tolist() == kl2.tolist()

    def test_rows_equal_diag_gaussian_reference(self):
        rng = np.random.default_rng(11)
        means, log_var = rng.uniform(-1, 1, (6, 2)), -0.4
        noise = rng.standard_normal((3, 6, 2))
        labels = [0, 1, 1, 0, 1, 0]

        def decoder(t):
            return t - numpy_logsumexp_rows(t)[:, None]

        lp, kl = cib_loss(labels, means, log_var, decoder, _toy_surrogate(), noise)
        codes = DiagGaussian(means, np.full(means.shape, log_var))
        ref_lp, ref_kl = loss_rows(labels, codes, decoder, _toy_surrogate(), noise)
        assert lp.tolist() == ref_lp.tolist() and kl.tolist() == ref_kl.tolist()

    def test_draw_count_comes_from_noise(self):
        lp, _ = cib_loss([0, 1], np.zeros((2, 2)), 0.0, _uniform_decoder(2), _toy_surrogate(), np.zeros((5, 2, 2)))
        assert lp.shape == (2, 5)
        for bad in (np.zeros((0, 2, 2)), np.zeros((1, 3, 2)), np.zeros((2, 2))):
            with pytest.raises(ValueError, match="noise must have shape"):
                cib_loss([0, 1], np.zeros((2, 2)), 0.0, _uniform_decoder(2), _toy_surrogate(), bad)
        with pytest.raises(ValueError, match="nonempty"):
            cib_loss([], np.zeros((0, 2)), 0.0, _uniform_decoder(2), _toy_surrogate(), np.zeros((1, 0, 2)))

    def test_label_outside_surrogate_rejected(self):
        with pytest.raises(ValueError, match="unknown class label 2"):
            cib_loss([2], np.zeros((1, 2)), 0.0, _uniform_decoder(2), _toy_surrogate(), np.zeros((1, 1, 2)))

    def test_kl_term_matches_quadrature_in_one_dimension(self):
        s = ClassSurrogate(
            class_means=np.array([[0.0]]), class_log_sigma=np.array([0.0]), priors=np.array([1.0])
        )
        _, kl = cib_loss([0], np.array([[1.0]]), math.log(0.25), _uniform_decoder(1), s, np.zeros((1, 1, 1)))
        oracle_value = gaussian_quadrature_kl(1.0, 0.25, 0.0, 1.0)
        assert kl[0] == pytest.approx(oracle_value, abs=1e-6)


def test_surrogate_kl_dominates_conditional_information():
    # discrete bound dominance: the batch KL to any product surrogate is an
    # upper bound on the exact class-conditional mutual information
    rng = np.random.default_rng(31)
    for _ in range(50):
        joint = random_joint(rng, 4, 2)
        arities = (2, 2)
        enc = random_encoder(rng, 4, arities)
        surrogate = random_product_surrogate(rng, 2, arities)
        report = oracle.info_report(joint, enc)
        decomp = oracle.decomposition_check(joint, enc, surrogate)
        assert decomp.lhs >= report.I_XT_given_Y - 1e-12


class TestGraphConsistency:
    def _random_setup(self, seed):
        rng = np.random.default_rng(seed)
        b, d, k = 5, 3, 2
        store = ParamStore(
            [
                ("W0", rng.uniform(-1, 1, (d, 4))),
                ("b0", rng.uniform(-1, 1, d)),
                ("log_eta2", rng.uniform(-0.5, 0.5, ())),
                ("mu", rng.uniform(-1, 1, (k, d))),
                ("log_sigma", rng.uniform(-0.3, 0.3, k)),
                ("W", rng.uniform(-1, 1, (k, d))),
                ("b", rng.uniform(-1, 1, k)),
            ]
        )
        x = rng.uniform(-2, 2, (b, 4))
        labels = rng.integers(0, k, b)
        noise = rng.standard_normal((2, b, d))
        return store, x, labels, noise

    def _build(self, store, x, labels, noise, beta_prime):
        tape = Tape(store)
        x, labels, beta_prime, noise = shared_by_rows(store, x, labels, beta_prime, noise)
        means = tape.mlp(x, ("W0", "b0"), "softplus")
        log_var = tape.log_var(0.3, "log_eta2")
        score_rule = ("softmax", "W", "b", None)
        total, ce, kl = cib_loss_graph(
            tape, means, log_var, labels, score_rule, "mu", "log_sigma", beta_prime, noise,
        )
        return tape, means, log_var, total, ce, kl

    def test_graph_values_match_plain_loss(self):
        store, x, labels, noise = self._random_setup(11)
        beta_prime = 0.8
        _, means, log_var, total, ce, kl = self._build(stack_of_one(store), x, labels, noise, beta_prime)

        s = ClassSurrogate(store.get("mu"), store.get("log_sigma"), np.array([0.5, 0.5]))
        w, bb = store.get("W"), store.get("b")

        def decoder(t):
            scores = t @ w.T + bb
            mx = scores.max(axis=1, keepdims=True)
            return scores - (mx + np.log(np.exp(scores - mx).sum(axis=1, keepdims=True)))

        lp, kl_rows = cib_loss(labels, means[0], float(log_var[0]), decoder, s, noise)
        ce_plain, kl_plain = float(-np.mean(lp)), float(np.mean(kl_rows))
        assert float(ce[0]) == pytest.approx(ce_plain, abs=1e-12)
        assert float(kl[0]) == pytest.approx(kl_plain, abs=1e-12)
        assert float(total[0]) == pytest.approx(ce_plain + beta_prime * kl_plain, abs=1e-12)

    def test_full_graph_passes_gradient_check(self):
        store, x, labels, noise = self._random_setup(13)

        def lossfn(s):
            tape, _, _, total, _, _ = self._build(s, x, labels, noise, 1.3)
            return total, tape

        report = grad_check(lossfn, store, eps=1e-5, tol=1e-5)
        assert report.passed, f"max rel error {report.max_rel_error:.2e} at {report.worst_name}"
