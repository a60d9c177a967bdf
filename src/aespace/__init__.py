"""Aesthetic-space toolkit.

Derives a scalar aesthetic score from view/fave counts, learns an embedding
space with a directional triplet loss so that distances encode aesthetic
similarity and norms encode pleasingness, and applies the result to ranking
collections and scoring video frame sequences.
"""

__version__ = "0.1.0"

from . import data_model, encoder, errors, loss, ranker, sampler, synth, trainer, video
from .data_model import Dataset, compute_score, load_dataset, save_dataset
from .encoder import EncoderParams
from .errors import AespaceError
from .loss import LossConfig, TripletLossResult, directional_triplet_loss
from .ranker import kendall_tau, pairwise_agreement, projection_score, rank_collection
from .sampler import SamplerConfig, TripletSampler
from .synth import SynthConfig, generate
from .trainer import TrainConfig, TrainLog, train
from .video import KalmanConfig, PeakConfig, detect_peaks, kalman_smooth, score_sequence

__all__ = [
    "__version__",
    "AespaceError",
    "Dataset",
    "EncoderParams",
    "KalmanConfig",
    "LossConfig",
    "PeakConfig",
    "SamplerConfig",
    "SynthConfig",
    "TrainConfig",
    "TrainLog",
    "TripletLossResult",
    "TripletSampler",
    "compute_score",
    "data_model",
    "detect_peaks",
    "directional_triplet_loss",
    "encoder",
    "errors",
    "generate",
    "kalman_smooth",
    "kendall_tau",
    "load_dataset",
    "loss",
    "pairwise_agreement",
    "projection_score",
    "rank_collection",
    "ranker",
    "sampler",
    "save_dataset",
    "score_sequence",
    "synth",
    "train",
    "trainer",
    "video",
]
