"""The closed-form KL from isotropic encoder outputs to the spherical class surrogates r(T|Y).

A batch of encoder outputs q(T|x) = N(f(x), sigma^2 I) is a (N, d) matrix of
means with one scalar log-variance, and a stack of P models gives (P, N, d)
means with (P,) log-variances.  Class y's surrogate N(mu_y, sigma_y^2 I) is
two slices of the model, its (K, d) class means and (K,) log-sigmas, stacked
to (P, K, d) and (P, K) (:meth:`cib.model.ModelState.surrogate`).  The KL is
exact: on plain arrays for evaluation (:func:`kl_to_surrogate`), and recorded
on a :class:`~cib.diffcore.Tape` for training (:func:`kl_to_surrogate_graph`).
"""

from __future__ import annotations

import numpy as np

from .diffcore import Tape

__all__ = [
    "kl_to_surrogate",
    "kl_to_surrogate_graph",
]


def kl_to_surrogate(
    means: np.ndarray, log_var: np.ndarray, mu: np.ndarray, log_sigma: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Per-row KL( N(means[p, i], exp(log_var[p]) I) || r_p(T | labels[i]) ) of a stack, in closed form.

    ``means`` is the (P, N, d) stack of encoder means, ``log_var`` the (P,)
    log-variances, ``mu`` and ``log_sigma`` the stacked (P, K, d) class means
    and (P, K) log-sigmas; the (N,) labels are shared.  Returns the (P, N) KLs.
    """
    means = np.asarray(means, dtype=np.float64)
    log_var = np.asarray(log_var, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    log_sigma = np.asarray(log_sigma, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    if log_sigma.shape != mu.shape[:-1]:
        raise ValueError(f"need one log-sigma per class mean, got {log_sigma.shape} for means {mu.shape}")
    if means.ndim != 3 or mu.shape[:-2] != means.shape[:1] or means.shape[2] != mu.shape[-1]:
        raise ValueError(f"dimension mismatch: codes {means.shape} vs stacked surrogate {mu.shape}; need (P, N, d)")
    if log_var.shape != means.shape[:1]:
        raise ValueError(f"need one log-variance per stacked row, got {log_var.shape} for {means.shape[0]} rows")
    if labels.shape != means.shape[1:2]:
        raise ValueError(f"need one label per code, got {labels.shape} for {means.shape[1]} codes")
    classes = mu.shape[-2]
    unknown = (labels < 0) | (labels >= classes)
    if np.any(unknown):
        raise ValueError(f"unknown class label {int(labels[unknown][0])}; surrogate covers 0..{classes - 1}")
    lv_y = 2.0 * log_sigma[:, labels]
    dl = log_var[:, None, None] - lv_y[..., None]
    z = (means - mu[:, labels]) ** 2 * np.exp(-lv_y)[..., None]
    return 0.5 * np.sum(np.exp(dl) + z - 1.0 - dl, axis=-1)


def kl_to_surrogate_graph(
    tape: Tape, means: np.ndarray, log_var: np.ndarray, mu: str, log_sigma: str | None, labels: np.ndarray
) -> np.ndarray:
    """Per-sample KLs to each sample's class surrogate, recorded on ``tape``.

    ``means`` is the (P, B, d) output of :meth:`Tape.mlp`, ``log_var`` that
    of :meth:`Tape.log_var`, and ``mu``, ``log_sigma`` name the (K, d)
    class-mean and (K,) class log-sigma slices (``log_sigma`` None: every
    sigma_y is 1).  Returns the (P, B) KLs; they are exact (no sampling) and
    mirror :func:`kl_to_surrogate` on plain arrays.  It is one
    :meth:`Tape.kl_to_surrogate_rows` call.
    """
    return tape.kl_to_surrogate_rows(means, log_var, mu, log_sigma, labels)
