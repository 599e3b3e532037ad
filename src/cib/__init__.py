"""Class-conditional information bottleneck workbench.

Trains stochastic bottleneck encoders under a class-conditional compression
objective, fits naive-Bayes-structured latent representations, and verifies
the underlying information-theoretic identities against an exact discrete
oracle and pairwise-mixture bound estimators.
"""

from . import data_io, diffcore, discrete_oracle, estimators, gaussians, model, objectives
from .data_io import Dataset, GmmSpec
from .diffcore import ParamStore, Tape, grad_check
from .estimators import EmbeddedDataset, bound_report
from .gaussians import ClassSurrogate, kl_to_surrogate
from .model import TradeoffPoint, evaluate, sweep, train
from .objectives import beta_to_beta_prime, cib_loss

__version__ = "0.1.0"

__all__ = [
    "data_io",
    "diffcore",
    "discrete_oracle",
    "estimators",
    "gaussians",
    "model",
    "objectives",
    "Dataset",
    "GmmSpec",
    "ParamStore",
    "Tape",
    "grad_check",
    "EmbeddedDataset",
    "bound_report",
    "ClassSurrogate",
    "kl_to_surrogate",
    "TradeoffPoint",
    "evaluate",
    "sweep",
    "train",
    "beta_to_beta_prime",
    "cib_loss",
    "__version__",
]
