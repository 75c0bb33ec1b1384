"""Inversion methods over the generator latent space.

Four ways to match observations plus generator fine-tuning:

* :func:`latent_optimize` -- Adam restarts on the latent, consecutive
  restarts descended together as one block of rows.
* :func:`train_inference_network` -- amortized reparameterization of the
  latent space.
* :func:`variational_infer` -- normalizing-flow posterior approximation.
* :func:`dream_zs` -- multi-chain MCMC with archive-based jumps.
* :func:`pivotal_tune` -- weight updates around fixed pre-inverted pivots.
"""

from .loss import DataLoss, DataLossConfig, InversionError, Observations
from .optimize import (
    Adam,
    InversionResult,
    LatentOptimizeConfig,
    PivotalTuneConfig,
    RestartRecord,
    TuneResult,
    latent_optimize,
    pivotal_tune,
)
from .mcmc import ChainEnsemble, DreamConfig, dream_zs, gelman_rubin
from .variational import FlowConfig, FlowModel, gaussian_data_loglik, variational_infer
from .amortized import (
    InferenceNet,
    InferenceNetConfig,
    expected_prior_pairwise_distance,
    mean_pairwise_distance,
    train_inference_network,
)

__all__ = [
    "Adam",
    "ChainEnsemble",
    "DataLoss",
    "DataLossConfig",
    "DreamConfig",
    "FlowConfig",
    "FlowModel",
    "InferenceNet",
    "InferenceNetConfig",
    "InversionError",
    "InversionResult",
    "LatentOptimizeConfig",
    "Observations",
    "PivotalTuneConfig",
    "RestartRecord",
    "TuneResult",
    "dream_zs",
    "expected_prior_pairwise_distance",
    "gaussian_data_loglik",
    "gelman_rubin",
    "latent_optimize",
    "mean_pairwise_distance",
    "pivotal_tune",
    "train_inference_network",
    "variational_infer",
]
