"""Diagonal Gaussians over the bottleneck space and the per-class surrogate family.

Provides densities, the closed-form KL divergence, reparameterized sampling,
and the spherical class-conditional surrogate r(T|Y) used both as the KL
regularizer target and as the generative side of the naive Bayes decoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffcore import Tape

__all__ = [
    "DiagGaussian",
    "ClassSurrogate",
    "log_pdf",
    "kl_diag",
    "sample_reparam",
    "kl_to_surrogate",
    "surrogate_component",
    "kl_to_surrogate_graph",
]

LOG_TWO_PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class DiagGaussian:
    """Diagonal-covariance Gaussian(s): mean and elementwise log-variance.

    The last axis is the coordinate axis; leading axes, if any, index a batch
    of independent Gaussians (a (N, d) mean holds N of them).
    """

    mean: np.ndarray
    log_var: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "log_var", np.asarray(self.log_var, dtype=np.float64))
        if self.mean.ndim < 1 or self.mean.shape != self.log_var.shape:
            raise ValueError(
                f"mean and log_var must be equal-shape arrays, got {self.mean.shape} and {self.log_var.shape}"
            )
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.log_var))):
            raise ValueError("DiagGaussian parameters must be finite")

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]


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


def log_pdf(g: DiagGaussian, t: np.ndarray) -> float | np.ndarray:
    """Exact log-density of ``g`` at the point ``t`` (one row per batched Gaussian)."""
    t = np.asarray(t, dtype=np.float64)
    if t.shape != g.mean.shape:
        raise ValueError(f"point has dimension {t.shape}, distribution has {g.mean.shape}")
    z = (t - g.mean) ** 2 * np.exp(-g.log_var)
    lp = -0.5 * np.sum(LOG_TWO_PI + g.log_var + z, axis=-1)
    return float(lp) if lp.ndim == 0 else lp


def kl_diag(g1: DiagGaussian, g2: DiagGaussian) -> float | np.ndarray:
    """Closed-form KL(g1 || g2) between diagonal Gaussians of equal dimension.

    Batch axes broadcast; a single pair gives a float, a batch an array of
    per-row KLs.
    """
    if g1.dim != g2.dim:
        raise ValueError(f"dimension mismatch: {g1.dim} vs {g2.dim}")
    dl = g1.log_var - g2.log_var
    z = (g1.mean - g2.mean) ** 2 * np.exp(-g2.log_var)
    kl = 0.5 * np.sum(np.exp(dl) + z - 1.0 - dl, axis=-1)
    return float(kl) if kl.ndim == 0 else kl


def sample_reparam(g: DiagGaussian, eps: np.ndarray) -> np.ndarray:
    """Reparameterized draw mean + exp(log_var / 2) * eps.

    ``eps`` is a standard-normal vector supplied by the caller so that the
    draw is a deterministic, differentiable function of the parameters.
    """
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != g.mean.shape:
        raise ValueError(f"noise has dimension {eps.shape}, distribution has {g.mean.shape}")
    return g.mean + np.exp(0.5 * g.log_var) * eps


def surrogate_component(s: ClassSurrogate, y: int | np.ndarray) -> DiagGaussian:
    """The class-y surrogate expanded to an explicit DiagGaussian.

    An array of labels gives one Gaussian per label, batched along its axes.
    """
    y = np.asarray(y, dtype=np.intp)
    unknown = (y < 0) | (y >= s.class_count)
    if np.any(unknown):
        raise ValueError(
            f"unknown class label {int(y[unknown].flat[0])}; surrogate covers 0..{s.class_count - 1}"
        )
    log_var = np.repeat((2.0 * s.class_log_sigma[y])[..., None], s.dim, axis=-1)
    return DiagGaussian(s.class_means[y], log_var)


def kl_to_surrogate(g: DiagGaussian, s: ClassSurrogate, y: int | np.ndarray) -> float | np.ndarray:
    """KL from encoder output(s) to the spherical surrogate of class ``y``.

    With a batched ``g`` and a matching array of labels the result holds one
    KL per row.
    """
    if g.dim != s.dim:
        raise ValueError(f"dimension mismatch: {g.dim} vs {s.dim}")
    return kl_diag(g, surrogate_component(s, y))


def kl_to_surrogate_graph(
    tape: Tape,
    means: int,
    log_var: int,
    mu: int,
    log_sigma: int,
    labels: np.ndarray,
) -> int:
    """Tape node of per-sample KLs to each sample's class surrogate.

    ``means`` is a (B, d) node of encoder means, ``log_var`` a scalar node of
    the shared isotropic encoder log-variance, ``mu`` a (K, d) node of class
    means and ``log_sigma`` a (K,) node of class log standard deviations.
    Returns a (B,) node; the result is exact (no sampling), mirroring
    :func:`kl_to_surrogate` coordinate-additively over the bottleneck.  It is
    one fused :meth:`Tape.kl_to_surrogate_rows` node.
    """
    return tape.kl_to_surrogate_rows(means, log_var, mu, log_sigma, labels)
