"""The spherical class surrogates r(T|Y) and the closed-form KL to them.

The encoder is isotropic, q(T|x) = N(f(x), sigma^2 I), so a batch of encoder
outputs is a (N, d) matrix of means with one scalar log-variance, and a
stack of P models gives (P, N, d) means with (P,) log-variances.  Its KL to
the spherical surrogate of each sample's class is exact: on plain arrays
for evaluation (:func:`kl_to_surrogate`), and recorded on a
:class:`~cib.diffcore.Tape` for training (:func:`kl_to_surrogate_graph`).
With the model's priors it is the naive Bayes decoder's generative side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffcore import NonFiniteError, Tape

__all__ = [
    "ClassSurrogate",
    "kl_to_surrogate",
    "kl_to_surrogate_graph",
]


@dataclass(frozen=True)
class ClassSurrogate:
    """Per-class spherical Gaussians (mu_y, sigma_y^2 I).

    ``class_log_sigma[..., y]`` is the log *standard deviation* of class y;
    the covariance is isotropic, so a single scalar per class suffices.  The
    surrogates of a stack of P models stack both: (P, K, d) class means and
    (P, K) log-sigmas.  The class priors belong to the model, which checks
    them where they enter it (``model.build_state``).
    """

    class_means: np.ndarray
    class_log_sigma: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "class_means", np.asarray(self.class_means, dtype=np.float64))
        object.__setattr__(self, "class_log_sigma", np.asarray(self.class_log_sigma, dtype=np.float64))
        if self.class_means.ndim not in (2, 3) or self.class_log_sigma.shape != self.class_means.shape[:-1]:
            raise ValueError("class_means must be ([P,] K, d) with ([P,] K) log-sigmas")
        if not (np.all(np.isfinite(self.class_means)) and np.all(np.isfinite(self.class_log_sigma))):
            raise NonFiniteError("ClassSurrogate parameters must be finite")

    @property
    def class_count(self) -> int:
        return self.class_means.shape[-2]

    @property
    def dim(self) -> int:
        return self.class_means.shape[-1]


def kl_to_surrogate(means: np.ndarray, log_var: np.ndarray, s: ClassSurrogate, labels: np.ndarray) -> np.ndarray:
    """Per-row KL( N(means[p, i], exp(log_var[p]) I) || r_p(T | labels[i]) ) of a stack, in closed form.

    ``means`` is the (P, N, d) stack of encoder means, ``log_var`` the (P,)
    log-variances and ``s`` the stacked (P, K, d) surrogate; the (N,) labels
    are shared by the stack.  Returns the (P, N) KLs.
    """
    means = np.asarray(means, dtype=np.float64)
    log_var = np.asarray(log_var, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    if means.ndim != 3 or s.class_means.shape[:-2] != means.shape[:1] or means.shape[2] != s.dim:
        raise ValueError(
            f"dimension mismatch: codes {means.shape} vs stacked surrogate {s.class_means.shape}; need (P, N, d)"
        )
    if log_var.shape != means.shape[:1]:
        raise ValueError(f"need one log-variance per stacked row, got {log_var.shape} for {means.shape[0]} rows")
    if labels.shape != means.shape[1:2]:
        raise ValueError(f"need one label per code, got {labels.shape} for {means.shape[1]} codes")
    unknown = (labels < 0) | (labels >= s.class_count)
    if np.any(unknown):
        raise ValueError(
            f"unknown class label {int(labels[unknown][0])}; surrogate covers 0..{s.class_count - 1}"
        )
    lv_y = 2.0 * s.class_log_sigma[:, labels]
    dl = log_var[:, None, None] - lv_y[..., None]
    z = (means - s.class_means[:, labels]) ** 2 * np.exp(-lv_y)[..., None]
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
