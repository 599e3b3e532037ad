"""The spherical class surrogates r(T|Y) and the closed-form KL to them.

The encoder is isotropic, q(T|x) = N(f(x), sigma^2 I), so a batch of encoder
outputs is a (N, d) matrix of means with one scalar log-variance.  Its KL to
the spherical surrogate of each sample's class is exact: on plain arrays
for evaluation (:func:`kl_to_surrogate`), and recorded on a
:class:`~cib.diffcore.Tape` for training (:func:`kl_to_surrogate_graph`).
The same surrogate is the generative side of the naive Bayes decoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffcore import Tape

__all__ = [
    "ClassSurrogate",
    "kl_to_surrogate",
    "kl_to_surrogate_graph",
]


@dataclass(frozen=True)
class ClassSurrogate:
    """Per-class spherical Gaussians (mu_y, sigma_y^2 I) plus class priors.

    ``class_log_sigma[y]`` is the log *standard deviation* of class y; the
    covariance is isotropic, so a single scalar per class suffices.
    """

    class_means: np.ndarray
    class_log_sigma: np.ndarray
    priors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "class_means", np.asarray(self.class_means, dtype=np.float64))
        object.__setattr__(self, "class_log_sigma", np.asarray(self.class_log_sigma, dtype=np.float64))
        object.__setattr__(self, "priors", np.asarray(self.priors, dtype=np.float64))
        k = self.class_means.shape[0] if self.class_means.ndim == 2 else -1
        if self.class_means.ndim != 2 or self.class_log_sigma.shape != (k,) or self.priors.shape != (k,):
            raise ValueError("class_means must be (K, d) with (K,) log-sigmas and priors")
        if not (
            np.all(np.isfinite(self.class_means))
            and np.all(np.isfinite(self.class_log_sigma))
            and np.all(np.isfinite(self.priors))
        ):
            raise ValueError("ClassSurrogate parameters must be finite")
        if np.any(self.priors < 0.0) or abs(float(self.priors.sum()) - 1.0) > 1e-12:
            raise ValueError("priors must be nonnegative and sum to 1")

    @property
    def class_count(self) -> int:
        return self.class_means.shape[0]

    @property
    def dim(self) -> int:
        return self.class_means.shape[1]


def kl_to_surrogate(means: np.ndarray, log_var: float, s: ClassSurrogate, labels: np.ndarray) -> np.ndarray:
    """Per-row KL( N(means[i], exp(log_var) I) || r(T | labels[i]) ) in closed form.

    ``means`` is a (N, d) matrix of encoder means and ``log_var`` the shared
    scalar log-variance; returns the (N,) KLs.
    """
    means = np.asarray(means, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    if means.ndim != 2 or means.shape[1] != s.dim:
        raise ValueError(f"dimension mismatch: codes {means.shape} vs surrogate dimension {s.dim}")
    if labels.shape != means.shape[:1]:
        raise ValueError(f"need one label per code, got {labels.shape} for {means.shape[0]} codes")
    unknown = (labels < 0) | (labels >= s.class_count)
    if np.any(unknown):
        raise ValueError(
            f"unknown class label {int(labels[unknown][0])}; surrogate covers 0..{s.class_count - 1}"
        )
    lv_y = 2.0 * s.class_log_sigma[labels]
    dl = log_var - lv_y[:, None]
    z = (means - s.class_means[labels]) ** 2 * np.exp(-lv_y)[:, None]
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
