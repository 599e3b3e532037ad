"""Diagonal Gaussians: densities, KL divergences, sampling, surrogates."""

import math

import numpy as np
import pytest

from cib.diffcore import ParamStore, Tape, grad_check
from cib.gaussians import (
    ClassSurrogate,
    DiagGaussian,
    kl_diag,
    kl_to_surrogate,
    kl_to_surrogate_graph,
    log_pdf,
    sample_reparam,
    surrogate_component,
)
from helpers import gaussian_quadrature_kl


def _standard(d=1):
    return DiagGaussian(np.zeros(d), np.zeros(d))


class TestLogPdf:
    def test_standard_normal_at_mode(self):
        assert log_pdf(_standard(), np.array([0.0])) == pytest.approx(
            -0.5 * math.log(2.0 * math.pi), abs=1e-15
        )

    def test_standard_normal_one_sigma_out(self):
        assert log_pdf(_standard(), np.array([1.0])) == pytest.approx(
            -0.5 * math.log(2.0 * math.pi) - 0.5, abs=1e-15
        )

    def test_density_integrates_to_one(self):
        # trapezoid over +-10 standard deviations
        g = DiagGaussian(np.array([0.3]), np.array([math.log(0.49)]))
        sd = math.sqrt(0.49)
        t = np.linspace(0.3 - 10 * sd, 0.3 + 10 * sd, 200001)
        dens = np.exp([log_pdf(g, np.array([ti])) for ti in t])
        assert np.trapezoid(dens, t) == pytest.approx(1.0, abs=1e-8)
        # and the point value agrees with the explicit formula
        expected = -0.5 * (math.log(2 * math.pi * 0.49) + (1.1 - 0.3) ** 2 / 0.49)
        assert log_pdf(g, np.array([1.1])) == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            log_pdf(_standard(2), np.zeros(3))


class TestKlDiag:
    def test_identical_distributions_have_zero_kl(self):
        g = DiagGaussian(np.array([0.4, -1.0]), np.array([0.3, -0.2]))
        assert kl_diag(g, g) == 0.0

    def test_unit_variance_mean_shift(self):
        g1 = DiagGaussian(np.array([1.0]), np.array([0.0]))
        assert kl_diag(g1, _standard()) == pytest.approx(0.5, abs=1e-15)

    def test_matches_numeric_integration(self):
        g1 = DiagGaussian(np.array([1.0]), np.array([math.log(0.25)]))
        oracle = gaussian_quadrature_kl(1.0, 0.25, 0.0, 1.0)
        assert kl_diag(g1, _standard()) == pytest.approx(oracle, abs=1e-6)

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            d = int(rng.integers(1, 5))
            g1 = DiagGaussian(rng.uniform(-2, 2, d), rng.uniform(-1, 1, d))
            g2 = DiagGaussian(rng.uniform(-2, 2, d), rng.uniform(-1, 1, d))
            assert kl_diag(g1, g2) >= 0.0
            assert kl_diag(g1, DiagGaussian(g1.mean.copy(), g1.log_var.copy())) <= 1e-12
            if not (np.allclose(g1.mean, g2.mean) and np.allclose(g1.log_var, g2.log_var)):
                assert kl_diag(g1, g2) > 1e-12

    def test_invariant_under_simultaneous_permutation(self):
        rng = np.random.default_rng(1)
        g1 = DiagGaussian(rng.uniform(-2, 2, 6), rng.uniform(-1, 1, 6))
        g2 = DiagGaussian(rng.uniform(-2, 2, 6), rng.uniform(-1, 1, 6))
        perm = rng.permutation(6)
        p1 = DiagGaussian(g1.mean[perm], g1.log_var[perm])
        p2 = DiagGaussian(g2.mean[perm], g2.log_var[perm])
        assert kl_diag(p1, p2) == pytest.approx(kl_diag(g1, g2), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kl_diag(_standard(2), _standard(3))


class TestSampleReparam:
    def test_zero_noise_returns_mean(self):
        g = DiagGaussian(np.array([1.0, -2.0]), np.array([0.7, 0.1]))
        np.testing.assert_array_equal(sample_reparam(g, np.zeros(2)), g.mean)

    def test_unit_log_var_zero_shifts_by_noise(self):
        g = DiagGaussian(np.array([1.0, 2.0]), np.zeros(2))
        np.testing.assert_array_equal(sample_reparam(g, np.ones(2)), [2.0, 3.0])

    def test_sample_mean_converges(self):
        rng = np.random.default_rng(2024)
        g = DiagGaussian(np.array([0.7]), np.array([math.log(2.0)]))
        draws = np.array([sample_reparam(g, e) for e in rng.standard_normal((100_000, 1))])
        sd = math.sqrt(2.0)
        assert abs(draws.mean() - 0.7) < 4.0 * sd / math.sqrt(100_000)

    def test_noise_dimension_checked(self):
        with pytest.raises(ValueError):
            sample_reparam(_standard(2), np.zeros(3))


def _surrogate():
    return ClassSurrogate(
        class_means=np.array([[1.0, -1.0], [-0.5, 2.0]]),
        class_log_sigma=np.array([0.2, -0.3]),
        priors=np.array([0.4, 0.6]),
    )


class TestClassSurrogate:
    def test_prior_validation(self):
        with pytest.raises(ValueError):
            ClassSurrogate(np.zeros((2, 2)), np.zeros(2), np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            ClassSurrogate(np.zeros((2, 2)), np.zeros(2), np.array([-0.1, 1.1]))

    def test_matching_encoder_output_has_zero_kl(self):
        s = _surrogate()
        g = DiagGaussian(s.class_means[1], np.full(2, 2.0 * s.class_log_sigma[1]))
        assert kl_to_surrogate(g, s, 1) == 0.0

    def test_agrees_with_expanded_diag_gaussian(self):
        rng = np.random.default_rng(5)
        s = _surrogate()
        g = DiagGaussian(rng.uniform(-2, 2, 2), rng.uniform(-1, 1, 2))
        for y in (0, 1):
            assert kl_to_surrogate(g, s, y) == kl_diag(g, surrogate_component(s, y))

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            kl_to_surrogate(_standard(2), _surrogate(), 2)

    def test_additive_over_coordinates(self):
        # spherical target => KL is the sum of per-coordinate 1-D KLs
        rng = np.random.default_rng(8)
        s = _surrogate()
        g = DiagGaussian(rng.uniform(-2, 2, 2), rng.uniform(-1, 1, 2))
        for y in (0, 1):
            per_coord = sum(
                kl_diag(
                    DiagGaussian(g.mean[[j]], g.log_var[[j]]),
                    DiagGaussian(s.class_means[y][[j]], np.array([2.0 * s.class_log_sigma[y]])),
                )
                for j in range(2)
            )
            assert kl_to_surrogate(g, s, y) == pytest.approx(per_coord, abs=1e-12)


class TestBatched:
    def _batch(self, seed=0, n=37, d=2):
        rng = np.random.default_rng(seed)
        means = rng.uniform(-2, 2, (n, d))
        log_var = rng.uniform(-1, 1, (n, d))
        return DiagGaussian(means, log_var), rng.integers(0, 2, n)

    def test_batch_keeps_coordinate_axis_last(self):
        g, _ = self._batch(n=5, d=3)
        assert g.dim == 3
        with pytest.raises(ValueError):
            DiagGaussian(np.zeros((5, 3)), np.zeros((5, 2)))

    def test_kl_to_surrogate_equals_per_row_calls(self):
        s = _surrogate()
        g, labels = self._batch()
        batched = kl_to_surrogate(g, s, labels)
        rows = [
            kl_to_surrogate(DiagGaussian(g.mean[i], g.log_var[i]), s, int(labels[i]))
            for i in range(labels.size)
        ]
        assert batched.shape == labels.shape
        assert batched.tolist() == rows

    def test_kl_diag_equals_per_row_calls(self):
        g1, _ = self._batch(seed=1, n=20, d=9)
        g2, _ = self._batch(seed=2, n=20, d=9)
        batched = kl_diag(g1, g2)
        rows = [
            kl_diag(DiagGaussian(g1.mean[i], g1.log_var[i]), DiagGaussian(g2.mean[i], g2.log_var[i]))
            for i in range(20)
        ]
        assert batched.tolist() == rows

    def test_surrogate_component_stacks_per_label(self):
        s = _surrogate()
        labels = np.array([1, 0, 1])
        batched = surrogate_component(s, labels)
        for i, y in enumerate(labels):
            single = surrogate_component(s, int(y))
            assert batched.mean[i].tolist() == single.mean.tolist()
            assert batched.log_var[i].tolist() == single.log_var.tolist()
        with pytest.raises(ValueError, match="unknown class label 2"):
            surrogate_component(s, np.array([0, 2]))

    def test_log_pdf_is_per_row(self):
        g, _ = self._batch(seed=3, n=4)
        t = np.random.default_rng(4).normal(size=(4, 2))
        rows = [log_pdf(DiagGaussian(g.mean[i], g.log_var[i]), t[i]) for i in range(4)]
        assert log_pdf(g, t).tolist() == rows


class TestKlGraph:
    def _setup(self, seed=0):
        rng = np.random.default_rng(seed)
        store = ParamStore(
            [
                ("means", rng.uniform(-2, 2, (3, 2))),
                ("log_var", rng.uniform(-0.5, 0.5, ())),
                ("mu", rng.uniform(-2, 2, (2, 2))),
                ("log_sigma", rng.uniform(-0.4, 0.4, 2)),
            ]
        )
        labels = np.array([0, 1, 1])
        return store, labels

    def test_values_match_plain_kl(self):
        store, labels = self._setup()
        tape = Tape(store)
        node = kl_to_surrogate_graph(
            tape, tape.param("means"), tape.param("log_var"),
            tape.param("mu"), tape.param("log_sigma"), labels,
        )
        s = ClassSurrogate(store.get("mu"), store.get("log_sigma"), np.array([0.5, 0.5]))
        lv = float(store.get("log_var"))
        expected = [
            kl_to_surrogate(DiagGaussian(store.get("means")[i], np.full(2, lv)), s, int(labels[i]))
            for i in range(3)
        ]
        np.testing.assert_allclose(tape.val(node), expected, atol=1e-12, rtol=0)

    def test_gradient_wrt_class_means_passes_check(self):
        store, labels = self._setup(seed=3)

        def lossfn(s):
            tape = Tape(s)
            node = kl_to_surrogate_graph(
                tape, tape.param("means"), tape.param("log_var"),
                tape.param("mu"), tape.param("log_sigma"), labels,
            )
            return tape, tape.mean_all(node)

        report = grad_check(lossfn, store, eps=1e-5, tol=1e-5)
        assert report.passed, f"max rel error {report.max_rel_error:.2e} at {report.worst_name}"
