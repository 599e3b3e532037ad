"""Class surrogates and the closed-form KL from isotropic encoder outputs to them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cib.diffcore import ParamStore, Tape, grad_check
from cib.gaussians import ClassSurrogate, kl_to_surrogate, kl_to_surrogate_graph
from helpers import DiagGaussian, gaussian_quadrature_kl, kl_diag, surrogate_component

# derandomized so that a tier-1 failure replays from its test id; no
# example database is written
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _surrogate():
    return ClassSurrogate(
        class_means=np.array([[1.0, -1.0], [-0.5, 2.0]]),
        class_log_sigma=np.array([0.2, -0.3]),
        priors=np.array([0.4, 0.6]),
    )


def _kl_1d(m, v, m_y, v_y):
    return 0.5 * (v / v_y + (m - m_y) ** 2 / v_y - 1.0 - math.log(v / v_y))


class TestClassSurrogate:
    def test_prior_validation(self):
        with pytest.raises(ValueError):
            ClassSurrogate(np.zeros((2, 2)), np.zeros(2), np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            ClassSurrogate(np.zeros((2, 2)), np.zeros(2), np.array([-0.1, 1.1]))

    def test_matching_encoder_output_has_zero_kl(self):
        s = _surrogate()
        kl = kl_to_surrogate(s.class_means[[1]], 2.0 * s.class_log_sigma[1], s, [1])
        assert kl.tolist() == [0.0]

    def test_agrees_with_expanded_diag_gaussian(self):
        rng = np.random.default_rng(5)
        s = _surrogate()
        means, log_var, labels = rng.uniform(-2, 2, (9, 2)), 0.41, rng.integers(0, 2, 9)
        expanded = kl_diag(DiagGaussian(means, np.full(means.shape, log_var)), surrogate_component(s, labels))
        assert kl_to_surrogate(means, log_var, s, labels).tolist() == expanded.tolist()

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown class label 2"):
            kl_to_surrogate(np.zeros((2, 2)), 0.0, _surrogate(), [0, 2])
        with pytest.raises(ValueError, match="unknown class label -1"):
            kl_to_surrogate(np.zeros((1, 2)), 0.0, _surrogate(), [-1])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            kl_to_surrogate(np.zeros((1, 3)), 0.0, _surrogate(), [0])
        with pytest.raises(ValueError, match="dimension"):
            kl_to_surrogate(np.zeros(2), 0.0, _surrogate(), [0])
        with pytest.raises(ValueError, match="one label per code"):
            kl_to_surrogate(np.zeros((3, 2)), 0.0, _surrogate(), [0, 1])

    def test_additive_over_coordinates(self):
        # spherical target => KL is the sum of per-coordinate 1-D KLs
        rng = np.random.default_rng(8)
        s = _surrogate()
        means, log_var = rng.uniform(-2, 2, (2, 2)), 0.37
        kl = kl_to_surrogate(means, log_var, s, [0, 1])
        for i, y in enumerate((0, 1)):
            v_y = math.exp(2.0 * s.class_log_sigma[y])
            per_coord = sum(_kl_1d(means[i, j], math.exp(log_var), s.class_means[y, j], v_y) for j in range(2))
            assert kl[i] == pytest.approx(per_coord, abs=1e-12)

    def test_matches_numeric_integration(self):
        s = ClassSurrogate(np.array([[0.0]]), np.array([0.0]), np.array([1.0]))
        kl = kl_to_surrogate(np.array([[1.0]]), math.log(0.25), s, [0])
        assert kl[0] == pytest.approx(gaussian_quadrature_kl(1.0, 0.25, 0.0, 1.0), abs=1e-6)


COORD = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False,
                  allow_subnormal=False)
LOG_VAR = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False,
                    allow_subnormal=False)


@st.composite
def kl_instances(draw, coord=COORD, log_var=LOG_VAR):
    """(means, log_var, surrogate, labels): N codes of dimension d against K classes."""
    n, d, k = draw(st.integers(1, 12)), draw(st.integers(1, 8)), draw(st.integers(1, 4))
    means = draw(arrays(np.float64, (n, d), elements=coord))
    class_means = draw(arrays(np.float64, (k, d), elements=coord))
    class_log_sigma = draw(arrays(np.float64, (k,), elements=log_var)) / 2.0
    labels = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    s = ClassSurrogate(class_means, class_log_sigma, np.full(k, 1.0 / k))
    return means, draw(log_var), s, labels


@PROPERTY
@given(inst=kl_instances())
def test_kl_is_nonnegative(inst):
    means, log_var, s, labels = inst
    # exp(dl) - 1 - dl cancels to a few ulps of 1 where dl ~ 0, so an exact
    # zero may round to about -1e-16 per coordinate
    assert np.all(kl_to_surrogate(means, log_var, s, labels) >= -1e-12)


GRID_COORD = st.integers(-40, 40).map(lambda i: i / 8.0)
GRID_LOG_VAR = st.integers(-16, 16).map(lambda i: i / 8.0)


@PROPERTY
@given(inst=kl_instances(coord=GRID_COORD, log_var=GRID_LOG_VAR), data=st.data())
def test_kl_is_zero_iff_code_matches_its_class_surrogate(inst, data):
    # on a grid of step 1/8 a mismatch is never lost to rounding
    means, log_var, s, labels = inst
    match_rows = np.array(data.draw(st.lists(st.booleans(), min_size=labels.size, max_size=labels.size)))
    means = np.where(match_rows[:, None], s.class_means[labels], means)
    if data.draw(st.booleans()):
        log_var = 2.0 * float(s.class_log_sigma[labels[0]])
    kl = kl_to_surrogate(means, log_var, s, labels)
    matches = np.all(means == s.class_means[labels], axis=1) & (log_var == 2.0 * s.class_log_sigma[labels])
    assert ((kl == 0.0) == matches).all()


@PROPERTY
@given(inst=kl_instances())
def test_batch_equals_its_single_row_calls(inst):
    means, log_var, s, labels = inst
    batched = kl_to_surrogate(means, log_var, s, labels)
    rows = [kl_to_surrogate(means[i : i + 1], log_var, s, labels[i : i + 1])[0] for i in range(labels.size)]
    assert batched.shape == labels.shape
    assert batched.tolist() == rows


class TestBatched:
    def test_kl_to_surrogate_equals_per_row_calls(self):
        rng = np.random.default_rng(0)
        s = _surrogate()
        means, log_var, labels = rng.uniform(-2, 2, (37, 2)), -0.6, rng.integers(0, 2, 37)
        batched = kl_to_surrogate(means, log_var, s, labels)
        rows = [kl_to_surrogate(means[[i]], log_var, s, labels[[i]])[0] for i in range(labels.size)]
        assert batched.shape == labels.shape
        assert batched.tolist() == rows


class TestKlGraph:
    def _setup(self, seed=0):
        """A 1-layer net's (3, 2) means of a fixed batch, a learned log-variance, a surrogate, a softmax readout."""
        rng = np.random.default_rng(seed)
        store = ParamStore(
            [
                ("W", rng.uniform(-1, 1, (2, 2))),
                ("b", rng.uniform(-1, 1, 2)),
                ("log_eta2", rng.uniform(-0.5, 0.5, ())),
                ("mu", rng.uniform(-2, 2, (2, 2))),
                ("log_sigma", rng.uniform(-0.4, 0.4, 2)),
                ("hW", rng.uniform(-1, 1, (2, 2))),
                ("hb", rng.uniform(-1, 1, 2)),
            ]
        )
        x = rng.uniform(-2, 2, (3, 2))
        labels = np.array([0, 1, 1])
        return store, x, labels

    def test_values_match_plain_kl(self):
        store, x, labels = self._setup()
        tape = Tape(store)
        means = tape.mlp(x, ("W", "b"), "tanh")
        log_var = tape.log_var(0.5, "log_eta2")
        rows = kl_to_surrogate_graph(tape, means, log_var, "mu", "log_sigma", labels)
        s = ClassSurrogate(store.get("mu"), store.get("log_sigma"), np.array([0.5, 0.5]))
        expected = kl_to_surrogate(means, float(log_var), s, labels)
        np.testing.assert_allclose(rows, expected, atol=1e-12, rtol=0)

    def test_gradient_wrt_class_means_passes_check(self):
        """With a softmax readout the surrogate's slices take adjoints from the KL rows alone."""
        store, x, labels = self._setup(seed=3)
        noise = np.random.default_rng(4).standard_normal((1, 3, 2))

        def lossfn(s):
            tape = Tape(s)
            means = tape.mlp(x, ("W", "b"), "tanh")
            log_var = tape.log_var(0.5, "log_eta2")
            ce = tape.mc_cross_entropy(means, log_var, noise, labels, "softmax", "hW", "hb")
            rows = kl_to_surrogate_graph(tape, means, log_var, "mu", "log_sigma", labels)
            total, _, _ = tape.total(ce, rows, 2.0)
            return total, tape

        report = grad_check(lossfn, store, eps=1e-5, tol=1e-5)
        assert report.passed, f"max rel error {report.max_rel_error:.2e} at {report.worst_name}"
