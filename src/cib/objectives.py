"""The class-conditional bottleneck training loss and the beta correspondence.

The trained objective is, per dataset sample,

    -E[log q(y_i | T)]  +  beta' * KL( q(T|x_i) || r(T|y_i) )

averaged over the batch.  The cross-entropy expectation is estimated with
reparameterized Monte-Carlo draws; the KL regularizer is computed in closed
form (both sides are Gaussian), which removes all sampling noise from that
term and from its gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .diffcore import Tape
from .gaussians import ClassSurrogate, DiagGaussian, kl_to_surrogate, kl_to_surrogate_graph

__all__ = [
    "LossBreakdown",
    "beta_to_beta_prime",
    "beta_prime_to_beta",
    "cross_entropy_term",
    "loss_rows",
    "cib_loss",
    "cib_loss_graph",
]


@dataclass(frozen=True)
class LossBreakdown:
    """Loss split into its cross-entropy and weighted-KL summands (nats)."""

    cross_entropy: float
    kl_term: float
    beta_prime: float
    total: float = field(init=False)

    def __post_init__(self):
        if self.beta_prime < 0.0:
            raise ValueError("beta_prime must be nonnegative")
        if not self.kl_term >= -1e-9:
            raise ValueError(f"kl_term must be nonnegative, got {self.kl_term}")
        object.__setattr__(self, "total", self.cross_entropy + self.beta_prime * self.kl_term)


def beta_to_beta_prime(beta: float) -> float:
    """Map the compression weight beta in [0, 1) to beta' = beta / (1 - beta).

    beta = 1 is rejected: beta' diverges and the objective would consist of
    the class-conditional compression term alone.
    """
    if not 0.0 <= beta < 1.0:
        if beta == 1.0:
            raise ValueError(
                "beta = 1 maps to beta' = infinity: the objective would contain only "
                "the class-conditional compression term"
            )
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    return beta / (1.0 - beta)


def beta_prime_to_beta(beta_prime: float) -> float:
    """Inverse map beta = beta' / (1 + beta')."""
    if beta_prime < 0.0:
        raise ValueError(f"beta_prime must be nonnegative, got {beta_prime}")
    return beta_prime / (1.0 + beta_prime)


def cross_entropy_term(true_class_log_probs: np.ndarray) -> float:
    """Monte-Carlo cross entropy from per-sample, per-draw true-class log-probs.

    ``true_class_log_probs`` has shape (N, S): row i holds log q(y_i | t) for
    the S reparameterized draws of sample i.  Returns the batch average of
    -(1/S) sum_s log q(y_i | t_s); a zero-probability true class yields +inf,
    which callers surface as a diagnosable non-finite-loss condition.
    """
    lp = np.asarray(true_class_log_probs, dtype=np.float64)
    if lp.ndim == 1:
        lp = lp[:, None]
    if lp.ndim != 2 or lp.shape[0] < 1 or lp.shape[1] < 1:
        raise ValueError("need a nonempty (N, S) array of log-probabilities")
    if np.any(np.isnan(lp)) or np.any(lp == np.inf):
        raise ValueError("log-probabilities must be finite or -inf")
    return float(-np.mean(lp))


Decoder = Callable[[np.ndarray], np.ndarray]


def loss_rows(
    labels: Sequence[int],
    encodings: DiagGaussian | Sequence[DiagGaussian],
    decoder: Decoder,
    surrogate: ClassSurrogate,
    mc_samples: int,
    noise: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample loss contributions: (N, S) true-class log-probs and (N,) KLs.

    ``encodings`` is one batched (N, d) DiagGaussian or a sequence of N
    single ones, which is stacked into one.  Non-finite values are returned,
    not rejected, so callers can locate the rows that produced them.
    """
    if mc_samples < 1:
        raise ValueError("mc_samples must be at least 1")
    if not isinstance(encodings, DiagGaussian):
        if len(encodings) == 0:
            raise ValueError("empty batch")
        encodings = DiagGaussian(
            np.stack([g.mean for g in encodings]), np.stack([g.log_var for g in encodings])
        )
    if encodings.mean.ndim != 2:
        raise ValueError(f"encodings must be a (N, d) batch, got shape {encodings.mean.shape}")
    n, d = encodings.mean.shape
    if n == 0:
        raise ValueError("empty batch")
    labels = np.asarray(labels, dtype=np.intp)
    if labels.shape != (n,):
        raise ValueError("labels and encodings must have equal length")
    if np.any(labels < 0) or np.any(labels >= surrogate.class_count):
        bad = int(labels[(labels < 0) | (labels >= surrogate.class_count)][0])
        raise ValueError(f"label {bad} not covered by the surrogate")
    noise = np.asarray(noise, dtype=np.float64)
    if noise.shape != (mc_samples, n, d):
        raise ValueError(f"noise must have shape {(mc_samples, n, d)}, got {noise.shape}")

    stds = np.exp(0.5 * encodings.log_var)
    rows = np.arange(n)
    true_lp = np.empty((n, mc_samples))
    for s in range(mc_samples):
        t = encodings.mean + stds * noise[s]
        true_lp[:, s] = decoder(t)[rows, labels]
    return true_lp, kl_to_surrogate(encodings, surrogate, labels)


def cib_loss(
    labels: Sequence[int],
    encodings: DiagGaussian | Sequence[DiagGaussian],
    decoder: Decoder,
    surrogate: ClassSurrogate,
    beta_prime: float,
    mc_samples: int,
    noise: np.ndarray,
) -> LossBreakdown:
    """Evaluate the training loss on a batch, deterministically for fixed noise.

    ``encodings`` is one batched (N, d) DiagGaussian, or a sequence of N
    single ones.  ``decoder`` maps a (n, d) matrix of bottleneck points to
    (n, K) class log-probabilities.  ``noise`` holds the frozen
    standard-normal draws with shape (mc_samples, N, d).  The KL summand uses
    the closed form, computed for the whole batch in one
    :func:`kl_to_surrogate` call, so only the cross-entropy half carries
    Monte-Carlo error.
    """
    if beta_prime < 0.0:
        raise ValueError("beta_prime must be nonnegative")
    true_lp, kl = loss_rows(labels, encodings, decoder, surrogate, mc_samples, noise)
    return LossBreakdown(
        cross_entropy=cross_entropy_term(true_lp), kl_term=float(np.mean(kl)), beta_prime=float(beta_prime)
    )


def cib_loss_graph(
    tape: Tape,
    means: int,
    log_var: int,
    labels: np.ndarray,
    score_rule: tuple,
    mu: int,
    log_sigma: int,
    beta_prime: float,
    noise: np.ndarray,
) -> tuple[int, int, int]:
    """Build the differentiable loss on ``tape``; returns (total, ce, kl) nodes.

    ``means`` is the (B, d) encoder-mean node, ``log_var`` the scalar encoder
    log-variance node, ``score_rule`` the score arguments
    ``(head, p, q, log_priors)`` of :meth:`Tape.mc_cross_entropy` (see
    ``DecoderHead.score_rule``), and ``noise`` the frozen (S, B, d)
    standard-normal draws.  The cross-entropy is one fused node over all
    draws and the KL one fused node over the batch.  Values on the returned
    nodes match :func:`cib_loss` on the same inputs.
    """
    if beta_prime < 0.0:
        raise ValueError("beta_prime must be nonnegative")
    labels = np.asarray(labels, dtype=np.intp)
    noise = np.asarray(noise, dtype=np.float64)
    b, d = tape.val(means).shape
    if noise.ndim != 3 or noise.shape[1:] != (b, d) or noise.shape[0] < 1:
        raise ValueError(f"noise must have shape (S, {b}, {d}), got {noise.shape}")

    ce = tape.mc_cross_entropy(means, log_var, noise, labels, *score_rule)
    kl = tape.mean_all(kl_to_surrogate_graph(tape, means, log_var, mu, log_sigma, labels))
    total = tape.add(ce, tape.scale(kl, float(beta_prime)))
    return total, ce, kl
