"""Shared randomized-instance builders and small numerical oracles."""

import math

import numpy as np

from cib.diffcore import logsumexp_rows
from cib.discrete_oracle import (
    DecompositionReport,
    DiscreteEncoder,
    DiscreteJoint,
    EquivalenceScan,
    OptimalityReport,
    ProductSurrogate,
    induced,
    info_report,
    kl_discrete,
    objective_values,
    optimal_product_surrogate,
)
from cib.estimators import MODE_AS_PRINTED


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


def sparse_rows(rng, shape, zero_frac, floor=0.05):
    """Random stochastic rows (last axis) with about ``zero_frac`` of entries set to 0.

    Every row keeps at least one positive entry.
    """
    t = rng.uniform(floor, 1.0, size=shape)
    t[rng.random(shape) < zero_frac] = 0.0
    rows = t.reshape(-1, shape[-1])
    for i in np.flatnonzero(rows.sum(axis=1) == 0.0):
        rows[i, rng.integers(0, shape[-1])] = 1.0
    return t / t.sum(axis=-1, keepdims=True)


def sparse_joint(rng, nx, ny, zero_frac):
    """Joint table with zero cells in which every class keeps positive mass."""
    p = np.ascontiguousarray(sparse_rows(rng, (ny, nx), zero_frac).T)
    return DiscreteJoint(p / p.sum())


def sparse_encoder(rng, nx, arities, zero_frac):
    return DiscreteEncoder(sparse_rows(rng, (nx, int(np.prod(arities))), zero_frac), tuple(arities))


def sparse_product_surrogate(rng, ny, arities, zero_frac):
    return ProductSurrogate(tuple(
        tuple(sparse_rows(rng, (a,), zero_frac) for a in arities) for _ in range(ny)
    ))


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


# --------------------------------------------------------------------- mixture-bound reference
#
# The mixture bound with the pairwise distances of each row block reduced by
# einsum over a (block, N, d) difference tensor.  The tiled per-coordinate
# kernel behind cib.estimators must reproduce it bit for bit.


def einsum_distance_tile(codes, start, stop):
    diff = codes[start:stop, None, :] - codes[None, :, :]
    return np.einsum("bnd,bnd->bn", diff, diff)


def einsum_bound_on_codes(codes, dim, sigma2, eta2, mode):
    """Drop-in for ``estimators._bound_on_codes``."""
    n = codes.shape[0]
    width = eta2 + sigma2
    inner_logs = np.empty(n)
    block_rows = max(1, min(1024, int(4e6 / max(1, n * codes.shape[1]))))
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        d2 = einsum_distance_tile(codes, start, stop)
        if mode == MODE_AS_PRINTED:
            kernel = -0.5 * np.sqrt(d2) / width
            inner_logs[start:stop] = logsumexp_rows(kernel)
        else:
            kernel = -0.5 * d2 / width
            inner_logs[start:stop] = logsumexp_rows(kernel) - np.log(n)
    return float(-np.mean(inner_logs) - dim * np.log(sigma2 / width))


# --------------------------------------------------------------------- discrete-oracle references
#
# The per-encoder and per-sample loops of the oracle.  The stacked family
# pass and the row-wise sample KLs of cib.discrete_oracle must reproduce them
# bit for bit.


def loop_equivalence_scan(joint, encoders, beta, tie_tol=1e-10):
    """``equivalence_scan`` as one ``info_report`` per encoder."""
    if not encoders:
        raise ValueError("encoder family must be non-empty")
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    beta_prime = beta / (1.0 - beta)
    l_ib = np.empty(len(encoders))
    l_cib = np.empty(len(encoders))
    for k, enc in enumerate(encoders):
        vals = objective_values(info_report(joint, enc), beta, beta_prime)
        l_ib[k] = vals.l_ib
        l_cib[k] = vals.l_cib
    argmin_ib = tuple(int(k) for k in np.flatnonzero(l_ib <= l_ib.min() + tie_tol))
    argmin_cib = tuple(int(k) for k in np.flatnonzero(l_cib <= l_cib.min() + tie_tol))
    return EquivalenceScan(beta, beta_prime, argmin_ib, argmin_cib, l_ib, l_cib)


def loop_sample_kl_objective(samples, enc, surrogate):
    """``sample_kl_objective`` as one ``kl_discrete`` per sample."""
    samples = np.asarray(samples, dtype=np.intp)
    expanded = [surrogate.expand(y) for y in range(surrogate.class_count)]
    return float(np.mean([kl_discrete(enc.q[x], expanded[y]) for x, y in samples]))


def loop_surrogate_optimality_check(samples, enc):
    """``surrogate_optimality_check`` with per-sample and per-class KL lists."""
    samples = np.asarray(samples, dtype=np.intp)
    class_count = int(samples[:, 1].max()) + 1
    counts = np.zeros(class_count, dtype=np.int64)
    t_given_y = np.zeros((class_count, enc.nt))
    for x, y in samples:
        counts[y] += 1
        t_given_y[y] += enc.q[x]
    t_given_y = t_given_y / counts[:, None]
    best = optimal_product_surrogate(t_given_y, enc.arities)
    lhs_min = loop_sample_kl_objective(samples, enc, best)
    tc = np.array([kl_discrete(t_given_y[y], best.expand(y)) for y in range(class_count)])
    rhs = float(np.mean([kl_discrete(enc.q[x], t_given_y[y]) + tc[y] for x, y in samples]))
    return OptimalityReport(lhs_min=lhs_min, rhs=rhs, surrogate=best)


def loop_decomposition_check(joint, enc, surrogate):
    """``decomposition_check`` with one ``kl_discrete`` per (x, y) cell, x-major."""
    expanded = [surrogate.expand(y) for y in range(joint.ny)]
    lhs = 0.0
    for x in range(joint.nx):
        for y in range(joint.ny):
            if joint.p[x, y] > 0.0:
                lhs += joint.p[x, y] * kl_discrete(enc.q[x], expanded[y])
    ind = induced(joint, enc)
    p_y = joint.p.sum(axis=0)
    residual = 0.0
    for y in range(joint.ny):
        if p_y[y] > 0.0:
            residual += p_y[y] * kl_discrete(ind.t_given_y[y], expanded[y])
    rep = info_report(joint, enc)
    return DecompositionReport(lhs=lhs, i_xt_given_y=rep.I_XT_given_Y, kl_residual=residual)
