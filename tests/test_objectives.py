"""Training-loss assembly and the beta <-> beta' correspondence."""

import math

import numpy as np
import pytest

from cib import discrete_oracle as oracle
from cib.diffcore import ParamStore, Tape, grad_check, logsumexp_rows
from cib.gaussians import ClassSurrogate, DiagGaussian, kl_to_surrogate, sample_reparam
from cib.objectives import (
    LossBreakdown,
    beta_prime_to_beta,
    beta_to_beta_prime,
    cib_loss,
    cib_loss_graph,
    cross_entropy_term,
)
from helpers import gaussian_quadrature_kl, random_encoder, random_joint, random_product_surrogate


class TestBetaMaps:
    def test_endpoints_and_midpoint(self):
        assert beta_to_beta_prime(0.0) == 0.0
        assert beta_to_beta_prime(0.5) == pytest.approx(1.0, abs=1e-15)
        assert beta_to_beta_prime(0.9) == pytest.approx(9.0, abs=1e-12)

    def test_inverse_map(self):
        assert beta_prime_to_beta(9.0) == pytest.approx(0.9, abs=1e-15)
        for beta in (0.0, 0.25, 0.5, 0.77):
            assert beta_prime_to_beta(beta_to_beta_prime(beta)) == pytest.approx(beta, abs=1e-14)

    def test_beta_of_one_rejected_with_reason(self):
        with pytest.raises(ValueError, match="compression"):
            beta_to_beta_prime(1.0)

    def test_out_of_range_rejected(self):
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError):
                beta_to_beta_prime(bad)
        with pytest.raises(ValueError):
            beta_prime_to_beta(-1.0)


class TestCrossEntropyTerm:
    def test_certain_decoder_gives_zero(self):
        assert cross_entropy_term(np.zeros((3, 2))) == 0.0

    def test_uniform_decoder_over_four_classes(self):
        lp = np.full((5, 1), math.log(0.25))
        assert cross_entropy_term(lp) == pytest.approx(math.log(4.0), abs=1e-15)

    def test_zero_probability_true_class_is_infinite(self):
        lp = np.array([[math.log(0.5)], [-np.inf]])
        assert cross_entropy_term(lp) == np.inf

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy_term(np.zeros((0, 1)))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy_term(np.array([[np.nan]]))


class TestLossBreakdown:
    def test_total_is_affine_combination(self):
        lb = LossBreakdown(cross_entropy=1.25, kl_term=0.5, beta_prime=3.0)
        assert lb.total == 1.25 + 3.0 * 0.5

    def test_negative_kl_rejected(self):
        with pytest.raises(ValueError):
            LossBreakdown(cross_entropy=1.0, kl_term=-1e-6, beta_prime=1.0)

    def test_monotone_in_beta_prime_when_kl_positive(self):
        values = [LossBreakdown(2.0, 0.4, bp).total for bp in (0.0, 0.5, 1.0, 4.0)]
        assert values == sorted(values)
        assert values[0] < values[-1]


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
    def test_zero_beta_prime_reduces_to_cross_entropy(self):
        rng = np.random.default_rng(0)
        encs = [DiagGaussian(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)) for _ in range(4)]
        noise = rng.standard_normal((3, 4, 2))
        lb = cib_loss([0, 1, 0, 1], encs, _uniform_decoder(2), _toy_surrogate(), 0.0, 3, noise)
        assert lb.total == lb.cross_entropy
        assert lb.cross_entropy == pytest.approx(math.log(2.0), abs=1e-12)

    def test_matching_surrogate_gives_zero_kl(self):
        s = _toy_surrogate()
        g = DiagGaussian(s.class_means[0], np.full(2, 2.0 * s.class_log_sigma[0]))
        lb = cib_loss([0], [g], _uniform_decoder(2), s, 2.0, 1, np.zeros((1, 1, 2)))
        assert lb.kl_term == 0.0

    def test_two_sample_batch_matches_manual_summation(self):
        rng = np.random.default_rng(77)
        s = _toy_surrogate()
        encs = [
            DiagGaussian(np.array([0.3, -0.4]), np.array([-0.1, 0.2])),
            DiagGaussian(np.array([-1.2, 0.9]), np.array([0.4, -0.6])),
        ]
        labels = [1, 0]
        mc = 2
        noise = rng.standard_normal((mc, 2, 2))
        w = rng.uniform(-1, 1, (2, 2))
        b = rng.uniform(-1, 1, 2)

        def decoder(t):
            scores = t @ w.T + b
            mx = scores.max(axis=1, keepdims=True)
            return scores - (mx + np.log(np.exp(scores - mx).sum(axis=1, keepdims=True)))

        beta_prime = 1.7
        lb = cib_loss(labels, encs, decoder, s, beta_prime, mc, noise)

        # independent per-sample summation with scalar building blocks
        per_sample = []
        for i, (g, y) in enumerate(zip(encs, labels)):
            ce_i = 0.0
            for smp in range(mc):
                t = sample_reparam(g, noise[smp, i])
                ce_i -= decoder(t[None, :])[0, y] / mc
            per_sample.append((ce_i, kl_to_surrogate(g, s, y)))
        ce_manual = sum(p[0] for p in per_sample) / 2.0
        kl_manual = sum(p[1] for p in per_sample) / 2.0
        assert lb.cross_entropy == pytest.approx(ce_manual, abs=1e-12)
        assert lb.kl_term == pytest.approx(kl_manual, abs=1e-12)
        assert lb.total == pytest.approx(ce_manual + beta_prime * kl_manual, abs=1e-12)

    def test_deterministic_for_fixed_noise(self):
        rng = np.random.default_rng(5)
        encs = [DiagGaussian(rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)) for _ in range(3)]
        noise = rng.standard_normal((2, 3, 2))
        args = ([0, 1, 1], encs, _uniform_decoder(2), _toy_surrogate(), 0.7, 2, noise)
        first, second = cib_loss(*args), cib_loss(*args)
        assert first.total == second.total
        assert first.cross_entropy == second.cross_entropy

    def test_batched_encodings_equal_list_form(self):
        rng = np.random.default_rng(11)
        means, log_var = rng.uniform(-1, 1, (6, 2)), rng.uniform(-1, 1, (6, 2))
        encs = [DiagGaussian(means[i], log_var[i]) for i in range(6)]
        noise = rng.standard_normal((3, 6, 2))
        labels = [0, 1, 1, 0, 1, 0]

        def decoder(t):
            return t - logsumexp_rows(t)[:, None]

        listed = cib_loss(labels, encs, decoder, _toy_surrogate(), 0.7, 3, noise)
        batched = cib_loss(labels, DiagGaussian(means, log_var), decoder, _toy_surrogate(), 0.7, 3, noise)
        assert batched == listed

    def test_label_outside_surrogate_rejected(self):
        g = DiagGaussian(np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="not covered"):
            cib_loss([2], [g], _uniform_decoder(2), _toy_surrogate(), 1.0, 1, np.zeros((1, 1, 2)))

    def test_kl_term_matches_quadrature_in_one_dimension(self):
        s = ClassSurrogate(
            class_means=np.array([[0.0]]), class_log_sigma=np.array([0.0]), priors=np.array([1.0])
        )
        g = DiagGaussian(np.array([1.0]), np.array([math.log(0.25)]))
        lb = cib_loss([0], [g], _uniform_decoder(1), s, 1.0, 1, np.zeros((1, 1, 1)))
        oracle_value = gaussian_quadrature_kl(1.0, 0.25, 0.0, 1.0)
        assert lb.kl_term == pytest.approx(oracle_value, abs=1e-6)


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
                ("means", rng.uniform(-2, 2, (b, d))),
                ("log_var", rng.uniform(-0.5, 0.5, ())),
                ("mu", rng.uniform(-1, 1, (k, d))),
                ("log_sigma", rng.uniform(-0.3, 0.3, k)),
                ("W", rng.uniform(-1, 1, (k, d))),
                ("b", rng.uniform(-1, 1, k)),
            ]
        )
        labels = rng.integers(0, k, b)
        noise = rng.standard_normal((2, b, d))
        return store, labels, noise

    def _build(self, store, labels, noise, beta_prime):
        tape = Tape(store)
        score_rule = ("softmax", tape.param("W"), tape.param("b"), None)
        total, ce, kl = cib_loss_graph(
            tape, tape.param("means"), tape.param("log_var"), labels,
            score_rule, tape.param("mu"), tape.param("log_sigma"), beta_prime, noise,
        )
        return tape, total, ce, kl

    def test_graph_values_match_plain_loss(self):
        store, labels, noise = self._random_setup(11)
        beta_prime = 0.8
        tape, total, ce, kl = self._build(store, labels, noise, beta_prime)

        lv = float(store.get("log_var"))
        encs = [DiagGaussian(m, np.full(3, lv)) for m in store.get("means")]
        s = ClassSurrogate(store.get("mu"), store.get("log_sigma"), np.array([0.5, 0.5]))
        w, bb = store.get("W"), store.get("b")

        def decoder(t):
            scores = t @ w.T + bb
            mx = scores.max(axis=1, keepdims=True)
            return scores - (mx + np.log(np.exp(scores - mx).sum(axis=1, keepdims=True)))

        lb = cib_loss(labels, encs, decoder, s, beta_prime, 2, noise)
        assert float(tape.val(ce)) == pytest.approx(lb.cross_entropy, abs=1e-12)
        assert float(tape.val(kl)) == pytest.approx(lb.kl_term, abs=1e-12)
        assert float(tape.val(total)) == pytest.approx(lb.total, abs=1e-12)

    def test_full_graph_passes_gradient_check(self):
        store, labels, noise = self._random_setup(13)

        def lossfn(s):
            tape, total, _, _ = self._build(s, labels, noise, 1.3)
            return tape, total

        report = grad_check(lossfn, store, eps=1e-5, tol=1e-5)
        assert report.passed, f"max rel error {report.max_rel_error:.2e} at {report.worst_name}"
