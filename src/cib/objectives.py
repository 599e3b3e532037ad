"""The class-conditional bottleneck training loss and the beta correspondence.

The trained objective is, per dataset sample,

    -E[log q(y_i | T)]  +  beta' * KL( q(T|x_i) || r(T|y_i) )

averaged over the batch.  The cross-entropy expectation is estimated with
reparameterized Monte-Carlo draws; the KL regularizer is computed in closed
form (both sides are Gaussian), which removes all sampling noise from that
term and from its gradient.  :func:`cib_loss_graph` records the loss on a
:class:`~cib.diffcore.Tape` for training, which differentiates it;
:func:`cib_loss` gives its per-sample parts on plain arrays for evaluation.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .diffcore import Tape
from .gaussians import ClassSurrogate, kl_to_surrogate, kl_to_surrogate_graph

__all__ = [
    "beta_to_beta_prime",
    "cib_loss",
    "cib_loss_graph",
]


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


def cib_loss(
    labels: Sequence[int],
    means: np.ndarray,
    log_var: float,
    log_probs: Callable[[np.ndarray], np.ndarray],
    surrogate: ClassSurrogate,
    noise: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample loss parts: (N, S) true-class log-probs and (N,) exact KLs.

    ``means`` is the (N, d) matrix of encoder means and ``log_var`` the shared
    scalar log-variance.  ``log_probs`` maps a (N, d) matrix of bottleneck
    points to (N, K) class log-probabilities, and ``noise`` holds the frozen
    (S, N, d) standard-normal draws, one reparameterized draw per sample and
    slice.  The KLs come from one :func:`kl_to_surrogate` call, so only the
    cross-entropy half carries Monte-Carlo error.  Non-finite values are
    returned, not rejected, so callers can locate the rows that produced them.
    """
    means = np.asarray(means, dtype=np.float64)
    if means.ndim != 2 or means.shape[0] == 0:
        raise ValueError(f"codes must be a nonempty (N, d) batch, got shape {means.shape}")
    n, d = means.shape
    noise = np.asarray(noise, dtype=np.float64)
    if noise.ndim != 3 or noise.shape[0] < 1 or noise.shape[1:] != (n, d):
        raise ValueError(f"noise must have shape (S, {n}, {d}), got {noise.shape}")
    labels = np.asarray(labels, dtype=np.intp)
    kl = kl_to_surrogate(means, log_var, surrogate, labels)

    std = np.exp(0.5 * log_var)
    rows = np.arange(n)
    true_lp = np.empty((n, noise.shape[0]))
    for s in range(noise.shape[0]):
        true_lp[:, s] = log_probs(means + std * noise[s])[rows, labels]
    return true_lp, kl


def cib_loss_graph(
    tape: Tape, means: np.ndarray, log_var: np.ndarray, labels: np.ndarray, score_rule: tuple,
    mu: str, log_sigma: str | None, beta_prime, noise: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Record the differentiable loss on ``tape``; returns (total, ce, kl) values.

    ``means`` is the (B, d) output of :meth:`Tape.mlp`, ``log_var`` the
    scalar of :meth:`Tape.log_var`, ``score_rule`` the score arguments
    ``(head, p, q, log_priors)`` of :meth:`Tape.mc_cross_entropy`, ``mu`` and
    ``log_sigma`` the surrogate's slice names, and ``noise`` the frozen
    (S, B, d) standard-normal draws; a shape that does not fit raises
    :class:`~cib.diffcore.ShapeError`.  On a stacked tape every array may
    carry the stack's leading axis, and ``beta_prime`` may be (P,) values.
    The values match the batch means of :func:`cib_loss` on the same inputs;
    ``tape.backward()`` then gives the gradient of the total.
    """
    if (beta_prime < 0.0).any() if isinstance(beta_prime, np.ndarray) else beta_prime < 0.0:
        raise ValueError("beta_prime must be nonnegative")
    ce = tape.mc_cross_entropy(means, log_var, noise, labels, *score_rule)
    kl_rows = kl_to_surrogate_graph(tape, means, log_var, mu, log_sigma, labels)
    return tape.total(ce, kl_rows, beta_prime)
