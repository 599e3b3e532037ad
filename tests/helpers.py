"""Shared randomized-instance builders and small numerical oracles."""

import math

import numpy as np

from cib.discrete_oracle import DiscreteEncoder, DiscreteJoint, ProductSurrogate


def random_joint(rng, nx, ny, floor=0.05):
    """Random joint table with strictly positive entries."""
    p = rng.uniform(floor, 1.0, size=(nx, ny))
    return DiscreteJoint(p / p.sum())


def random_encoder(rng, nx, arities, floor=0.05):
    """Random stochastic encoder with strictly positive rows."""
    nt = int(np.prod(arities))
    q = rng.uniform(floor, 1.0, size=(nx, nt))
    return DiscreteEncoder(q / q.sum(axis=1, keepdims=True), tuple(arities))


def random_arities(rng, max_outcomes=16):
    """One to three coordinates with alphabet sizes 2..4, product capped."""
    while True:
        n_coords = int(rng.integers(1, 4))
        arities = tuple(int(rng.integers(2, 5)) for _ in range(n_coords))
        if int(np.prod(arities)) <= max_outcomes:
            return arities


def random_product_surrogate(rng, ny, arities, floor=0.05):
    factors = []
    for _ in range(ny):
        class_factors = []
        for a in arities:
            f = rng.uniform(floor, 1.0, size=a)
            class_factors.append(f / f.sum())
        factors.append(tuple(class_factors))
    return ProductSurrogate(tuple(factors))


def random_samples(rng, nx, ny, n):
    """(x, y) index pairs guaranteed to hit every class at least once."""
    xs = rng.integers(0, nx, size=n)
    ys = np.concatenate([np.arange(ny), rng.integers(0, ny, size=n - ny)])
    return np.stack([xs, ys], axis=1)


def central_difference(f, theta, eps):
    """Independent coordinate-wise central-difference gradient of f at theta."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    for k in range(theta.size):
        up = theta.copy()
        up[k] += eps
        down = theta.copy()
        down[k] -= eps
        grad[k] = (f(up) - f(down)) / (2.0 * eps)
    return grad


def gaussian_quadrature_kl(m1, v1, m2, v2, lo=-12.0, hi=12.0, n=240001):
    """Trapezoid-rule KL between two 1-D Gaussians given means and variances."""
    t = np.linspace(lo, hi, n)
    p = np.exp(-0.5 * (t - m1) ** 2 / v1) / np.sqrt(2.0 * np.pi * v1)
    q = np.exp(-0.5 * (t - m2) ** 2 / v2) / np.sqrt(2.0 * np.pi * v2)
    integrand = np.where(p > 0.0, p * (np.log(np.maximum(p, 1e-300)) - np.log(np.maximum(q, 1e-300))), 0.0)
    return float(np.trapezoid(integrand, t))


# --------------------------------------------------------------------- primitive-op reference chains
#
# The training loss as chains of primitive tape ops.  The fused ops
# (Tape.kl_to_surrogate_rows, Tape.naive_bayes_scores, Tape.softmax_nll) must
# reproduce these bit for bit, values and gradients.


def chain_kl_to_surrogate_rows(tape, means, log_var, mu, log_sigma, labels):
    b, d = tape.val(means).shape
    labels = np.asarray(labels, dtype=np.intp)
    log_var_y = tape.scale(tape.take(log_sigma, labels), 2.0)
    diff = tape.sub(means, tape.take_rows(mu, labels))
    sq_dist = tape.row_sum(tape.mul(diff, diff))
    lv_b = tape.bcast(log_var, (b,))
    var_ratio = tape.scale(tape.exp(tape.sub(lv_b, log_var_y)), float(d))
    mahal = tape.mul(sq_dist, tape.exp(tape.neg(log_var_y)))
    terms = [
        var_ratio,
        mahal,
        tape.scale(log_var_y, float(d)),
        tape.scale(lv_b, -float(d)),
        tape.const(np.full(b, -float(d))),
    ]
    return tape.scale(tape.add_n(terms), 0.5)


def chain_naive_bayes_scores(tape, t, mu, log_var, log_priors):
    """Scores from a (K,) class log-variance node (2 log sigma_y, or a zero constant)."""
    d = tape.val(t).shape[1]
    quad = tape.mul_rows(
        tape.pairwise_sqdist(t, mu),
        tape.scale(tape.exp(tape.neg(log_var)), 0.5),
    )
    offset = tape.add(
        tape.scale(log_var, -0.5 * d),
        tape.const(log_priors - 0.5 * d * math.log(2.0 * math.pi)),
    )
    return tape.add_rows(tape.neg(quad), offset)


def chain_softmax_nll(tape, scores, labels):
    return tape.sub(tape.logsumexp_rows(scores), tape.pick(scores, labels))


def chain_loss_graph(state, tape, x, labels, beta_prime, noise):
    """``ModelState.loss_graph`` built from primitive ops only; returns (total, ce, kl)."""
    learned_sigma = "sur.log_sigma" in state.store.names()
    labels = np.asarray(labels, dtype=np.intp)
    means = state.encoder.means_graph(tape, x)
    log_var = state.encoder.log_var_graph(tape)
    mu = tape.param("sur.mu")
    log_sigma = tape.param("sur.log_sigma") if learned_sigma else tape.const(np.zeros(state.class_count))

    def scores_graph(t):
        if state.head.variant == "softmax":
            return tape.affine(t, tape.param("head.W"), tape.param("head.b"), label="head")
        head_mu = tape.param("sur.mu")
        if learned_sigma:
            class_log_var = tape.scale(tape.param("sur.log_sigma"), 2.0)
        else:
            class_log_var = tape.const(np.zeros(state.class_count))
        with np.errstate(divide="ignore"):
            log_priors = np.log(state.priors)
        return chain_naive_bayes_scores(tape, t, head_mu, class_log_var, log_priors)

    std = tape.exp(tape.scale(log_var, 0.5))
    nll_draws = []
    for s in range(noise.shape[0]):
        t = tape.add(means, tape.mul_scalar(tape.const(noise[s]), std))
        nll_draws.append(chain_softmax_nll(tape, scores_graph(t), labels))
    ce = tape.mean_all(tape.scale(tape.add_n(nll_draws), 1.0 / noise.shape[0]))
    kl = tape.mean_all(chain_kl_to_surrogate_rows(tape, means, log_var, mu, log_sigma, labels))
    total = tape.add(ce, tape.scale(kl, float(beta_prime)))
    return total, ce, kl
