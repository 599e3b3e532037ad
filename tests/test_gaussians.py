"""The closed-form KL from isotropic encoder outputs to the class surrogates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cib.diffcore import ParamStore, Tape, grad_check
from cib.gaussians import kl_to_surrogate, kl_to_surrogate_graph
from helpers import DiagGaussian, gaussian_quadrature_kl, kl_diag, shared_by_rows, stack_of_one, surrogate_component

# derandomized so that a tier-1 failure replays from its test id; no
# example database is written
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def _surrogate():
    """(class means, class log-sigmas) of two classes in two dimensions."""
    return np.array([[1.0, -1.0], [-0.5, 2.0]]), np.array([0.2, -0.3])


def _kl_stack(surrogates):
    """The stacked (class means, log-sigmas) of these models."""
    return np.stack([mu for mu, _ in surrogates]), np.stack([log_sigma for _, log_sigma in surrogates])


def _kl_alone(means, log_var, s, labels):
    """``kl_to_surrogate`` of one model: a stack of one."""
    return kl_to_surrogate(np.asarray(means, dtype=np.float64)[None], np.array([log_var]), *_kl_stack([s]), labels)[0]


def _kl_1d(m, v, m_y, v_y):
    return 0.5 * (v / v_y + (m - m_y) ** 2 / v_y - 1.0 - math.log(v / v_y))


class TestKlToSurrogate:
    @pytest.mark.parametrize("mu_shape,log_sigma_shape", [((1, 2, 2), (1, 3)), ((1, 2, 2), (2,)), ((1, 2), (1, 2))])
    def test_means_and_log_sigmas_of_other_shapes_rejected(self, mu_shape, log_sigma_shape):
        with pytest.raises(ValueError, match=r"need one log-sigma per class mean, got \(.*\) for means \(.*\)"):
            kl_to_surrogate(np.zeros((1, 3, 2)), np.zeros(1), np.zeros(mu_shape), np.zeros(log_sigma_shape), [0, 1, 0])

    def test_matching_encoder_output_has_zero_kl(self):
        s = mu, log_sigma = _surrogate()
        kl = _kl_alone(mu[[1]], 2.0 * log_sigma[1], s, [1])
        assert kl.tolist() == [0.0]

    def test_agrees_with_expanded_diag_gaussian(self):
        rng = np.random.default_rng(5)
        s = _surrogate()
        means, log_var, labels = rng.uniform(-2, 2, (9, 2)), 0.41, rng.integers(0, 2, 9)
        expanded = kl_diag(DiagGaussian(means, np.full(means.shape, log_var)), surrogate_component(s, labels))
        assert _kl_alone(means, log_var, s, labels).tolist() == expanded.tolist()

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="unknown class label 2"):
            _kl_alone(np.zeros((2, 2)), 0.0, _surrogate(), [0, 2])
        with pytest.raises(ValueError, match="unknown class label -1"):
            _kl_alone(np.zeros((1, 2)), 0.0, _surrogate(), [-1])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            _kl_alone(np.zeros((1, 3)), 0.0, _surrogate(), [0])
        with pytest.raises(ValueError, match="dimension"):
            _kl_alone(np.zeros(2), 0.0, _surrogate(), [0])
        with pytest.raises(ValueError, match="one label per code"):
            _kl_alone(np.zeros((3, 2)), 0.0, _surrogate(), [0, 1])
        s = _surrogate()
        with pytest.raises(ValueError, match="dimension"):  # the stack axis is required, on both sides
            kl_to_surrogate(np.zeros((3, 2)), np.zeros(1), *s, [0, 1, 0])
        with pytest.raises(ValueError, match="dimension"):
            kl_to_surrogate(np.zeros((2, 3, 2)), np.zeros(2), *s, [0, 1, 0])
        with pytest.raises(ValueError, match="one log-variance per stacked row"):
            kl_to_surrogate(np.zeros((1, 3, 2)), 0.0, *_kl_stack([s]), [0, 1, 0])

    def test_additive_over_coordinates(self):
        # spherical target => KL is the sum of per-coordinate 1-D KLs
        rng = np.random.default_rng(8)
        s = mu, log_sigma = _surrogate()
        means, log_var = rng.uniform(-2, 2, (2, 2)), 0.37
        kl = _kl_alone(means, log_var, s, [0, 1])
        for i, y in enumerate((0, 1)):
            v_y = math.exp(2.0 * log_sigma[y])
            per_coord = sum(_kl_1d(means[i, j], math.exp(log_var), mu[y, j], v_y) for j in range(2))
            assert kl[i] == pytest.approx(per_coord, abs=1e-12)

    def test_matches_numeric_integration(self):
        s = np.array([[0.0]]), np.array([0.0])
        kl = _kl_alone(np.array([[1.0]]), math.log(0.25), s, [0])
        assert kl[0] == pytest.approx(gaussian_quadrature_kl(1.0, 0.25, 0.0, 1.0), abs=1e-6)


COORD = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False,
                  allow_subnormal=False)
LOG_VAR = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False, allow_infinity=False,
                    allow_subnormal=False)


@st.composite
def kl_instances(draw, coord=COORD, log_var=LOG_VAR):
    """(means, log_var, (class means, log-sigmas), labels): N codes of dimension d against K classes."""
    n, d, k = draw(st.integers(1, 12)), draw(st.integers(1, 8)), draw(st.integers(1, 4))
    means = draw(arrays(np.float64, (n, d), elements=coord))
    class_means = draw(arrays(np.float64, (k, d), elements=coord))
    class_log_sigma = draw(arrays(np.float64, (k,), elements=log_var)) / 2.0
    labels = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    return means, draw(log_var), (class_means, class_log_sigma), labels


@PROPERTY
@given(inst=kl_instances())
def test_kl_is_nonnegative(inst):
    means, log_var, s, labels = inst
    # exp(dl) - 1 - dl cancels to a few ulps of 1 where dl ~ 0, so an exact
    # zero may round to about -1e-16 per coordinate
    assert np.all(_kl_alone(means, log_var, s, labels) >= -1e-12)


GRID_COORD = st.integers(-40, 40).map(lambda i: i / 8.0)
GRID_LOG_VAR = st.integers(-16, 16).map(lambda i: i / 8.0)


@PROPERTY
@given(inst=kl_instances(coord=GRID_COORD, log_var=GRID_LOG_VAR), data=st.data())
def test_kl_is_zero_iff_code_matches_its_class_surrogate(inst, data):
    # on a grid of step 1/8 a mismatch is never lost to rounding
    means, log_var, s, labels = inst
    mu, log_sigma = s
    match_rows = np.array(data.draw(st.lists(st.booleans(), min_size=labels.size, max_size=labels.size)))
    means = np.where(match_rows[:, None], mu[labels], means)
    if data.draw(st.booleans()):
        log_var = 2.0 * float(log_sigma[labels[0]])
    kl = _kl_alone(means, log_var, s, labels)
    matches = np.all(means == mu[labels], axis=1) & (log_var == 2.0 * log_sigma[labels])
    assert ((kl == 0.0) == matches).all()


@PROPERTY
@given(inst=kl_instances())
def test_batch_equals_its_single_row_calls(inst):
    means, log_var, s, labels = inst
    batched = _kl_alone(means, log_var, s, labels)
    rows = [_kl_alone(means[i : i + 1], log_var, s, labels[i : i + 1])[0] for i in range(labels.size)]
    assert batched.shape == labels.shape
    assert batched.tolist() == rows


@PROPERTY
@given(p=st.integers(1, 4), n=st.integers(1, 12), d=st.integers(1, 9), k=st.integers(1, 4), data=st.data())
def test_stacked_rows_equal_their_stacks_of_one(p, n, d, k, data):
    """Row p of a stack of P models is ``==`` model p alone and the expanded DiagGaussian reference."""
    means = data.draw(arrays(np.float64, (p, n, d), elements=COORD))
    log_var = data.draw(arrays(np.float64, (p,), elements=LOG_VAR))
    surrogates = [
        (data.draw(arrays(np.float64, (k, d), elements=COORD)),
         data.draw(arrays(np.float64, (k,), elements=LOG_VAR)) / 2.0)
        for _ in range(p)
    ]
    labels = np.array(data.draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n)))
    stacked = kl_to_surrogate(means, log_var, *_kl_stack(surrogates), labels)
    assert stacked.shape == (p, n)
    for row, m, lv, s in zip(stacked, means, log_var, surrogates):
        expanded = kl_diag(DiagGaussian(m, np.full(m.shape, lv)), surrogate_component(s, labels))
        assert row.tolist() == _kl_alone(m, lv, s, labels).tolist() == expanded.tolist()


class TestBatched:
    def test_kl_to_surrogate_equals_per_row_calls(self):
        rng = np.random.default_rng(0)
        s = _surrogate()
        means, log_var, labels = rng.uniform(-2, 2, (37, 2)), -0.6, rng.integers(0, 2, 37)
        batched = _kl_alone(means, log_var, s, labels)
        rows = [_kl_alone(means[[i]], log_var, s, labels[[i]])[0] for i in range(labels.size)]
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
        tape = Tape(stack_of_one(store))
        means = tape.mlp(x[None], ("W", "b"), "tanh")
        log_var = tape.log_var(0.5, "log_eta2")
        rows = kl_to_surrogate_graph(tape, means, log_var, "mu", "log_sigma", labels[None])
        expected = kl_to_surrogate(means, log_var, store.get("mu")[None], store.get("log_sigma")[None], labels)
        np.testing.assert_allclose(rows, expected, atol=1e-12, rtol=0)

    def test_gradient_wrt_class_means_passes_check(self):
        """With a softmax readout the surrogate's slices take adjoints from the KL rows alone."""
        store, x, labels = self._setup(seed=3)
        noise = np.random.default_rng(4).standard_normal((1, 3, 2))

        def lossfn(s):
            tape = Tape(s)
            xs, ys, noises, beta_prime = shared_by_rows(s, x, labels, noise, 2.0)
            means = tape.mlp(xs, ("W", "b"), "tanh")
            log_var = tape.log_var(0.5, "log_eta2")
            ce = tape.mc_cross_entropy(means, log_var, noises, ys, "softmax", "hW", "hb")
            rows = kl_to_surrogate_graph(tape, means, log_var, "mu", "log_sigma", ys)
            total, _, _ = tape.total(ce, rows, beta_prime)
            return total, tape

        report = grad_check(lossfn, store, eps=1e-5, tol=1e-5)
        assert report.passed, f"max rel error {report.max_rel_error:.2e} at {report.worst_name}"
