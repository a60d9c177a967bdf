"""SGD training of the encoder on streamed triplets.

Each step draws a fresh batch of accepted triplets, averages the combined
loss gradient over the batch (mean, not sum, so loss magnitudes compare
across batch sizes), and applies a plain gradient-descent update. Steps run
in windows of ``PLATEAU_WINDOW``; each window logs its mean losses. The
learning rate starts at ``lr_init`` and is divided by ``LR_DECAY_FACTOR``
once ``PLATEAU_PATIENCE`` full windows in a row fail to beat the best mean
loss by ``PLATEAU_MIN_REL_IMPROVEMENT``; training stops early once the rate
falls below ``LR_FLOOR``. No momentum, no data augmentation: features are
consumed exactly as stored.

Determinism: a single master seed drives everything. Two child seeds are
derived from it (numpy SeedSequence order: encoder init first, then the
triplet stream), so identical dataset + config + seed reproduce the final
parameters bit for bit. The seed inside ``TrainConfig.sampler`` is
superseded by the derived child seed.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from . import encoder
from .data_model import Dataset
from .errors import ConfigError, DivergenceError
from .loss import LossConfig, batch_loss
from .sampler import SamplerConfig, TripletSampler

# the divide-on-plateau schedule, read by ``train`` at call time
PLATEAU_WINDOW = 500  # steps per logged window
PLATEAU_PATIENCE = 3  # stalled full windows in a row before a decay
# a window mean counts as an improvement only if it beats the best by this fraction
PLATEAU_MIN_REL_IMPROVEMENT = 1e-3
LR_DECAY_FACTOR = 10.0
LR_FLOOR = 1e-6  # training stops once the rate falls below this


@dataclass(frozen=True)
class TrainConfig:
    max_steps: int
    lr_init: float = 1e-3
    batch_size: int = 64
    seed: int = 0
    hidden_dims: tuple[int, ...] = (64, 32)
    embed_dim: int = 16
    loss: LossConfig = field(default_factory=LossConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)

    def validate(self) -> None:
        if self.max_steps < 0:
            raise ConfigError(f"max_steps must be >= 0, got {self.max_steps}")
        if not (math.isfinite(self.lr_init) and self.lr_init >= 0):
            raise ConfigError(f"lr_init must be finite and >= 0, got {self.lr_init}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if any(h < 1 for h in self.hidden_dims) or self.embed_dim < 1:
            raise ConfigError("hidden_dims and embed_dim must be positive")
        self.loss.validate()
        self.sampler.validate()


@dataclass(frozen=True)
class WindowRecord:
    step: int
    mean_loss: float
    mean_le: float
    mean_ld: float
    lr: float
    acceptance_rate: float


@dataclass
class TrainLog:
    windows: list[WindowRecord] = field(default_factory=list)


def derive_seeds(seed: int) -> tuple[int, int]:
    """(encoder-init seed, sampler seed) derived from the master seed."""
    state = np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64)
    return int(state[0]), int(state[1])


def _pack(params: encoder.EncoderParams):
    """Moves every weight and bias into one buffer, with a gradient buffer to match.

    ``params.weights[k]`` and ``params.biases[k]`` become views into the
    returned parameter buffer, so one array operation updates every layer.

    Returns:
        (parameter buffer, gradient buffer, EncoderGrads viewing the latter).
    """
    arrays = [*params.weights, *params.biases]
    flat = np.concatenate([a.ravel() for a in arrays])
    grad_flat = np.empty_like(flat)
    views, grad_views = [], []
    start = 0
    for a in arrays:
        stop = start + a.size
        views.append(flat[start:stop].reshape(a.shape))
        grad_views.append(grad_flat[start:stop].reshape(a.shape))
        start = stop
    layers = len(params.weights)
    params.weights, params.biases = views[:layers], views[layers:]
    return flat, grad_flat, encoder.EncoderGrads(grad_views[:layers], grad_views[layers:])


def train(dataset: Dataset, config: TrainConfig) -> tuple[encoder.EncoderParams, TrainLog]:
    """Fit the encoder to a dataset's triplet stream.

    Raises:
        ConfigError: Invalid config or dataset smaller than 3 records.
        SamplerStarvationError: The triplet window admits no triplets.
        DivergenceError: A non-finite loss or gradient appeared.
    """
    config.validate()
    if len(dataset) < 3:
        raise ConfigError(f"training needs at least 3 records, got {len(dataset)}")

    init_seed, sampler_seed = derive_seeds(config.seed)
    layer_dims = [dataset.d_in, *config.hidden_dims, config.embed_dim]
    params = encoder.init(layer_dims, init_seed)
    flat, grad_flat, grads = _pack(params)
    batch_size = config.batch_size
    inv_b = 1.0 / batch_size

    scores = dataset.scores()
    features = dataset.features
    samp = TripletSampler(scores, dataclasses.replace(config.sampler, seed=sampler_seed))

    log = TrainLog()
    lr = config.lr_init
    best, stalls = None, 0
    step = 0
    # the rate changes only between windows, so the floor is checked once per window
    while step < config.max_steps and lr >= LR_FLOOR:
        last = min(step + PLATEAU_WINDOW, config.max_steps)
        steps = last - step
        proposed, accepted = samp.stats.proposed, samp.stats.accepted
        win_total = win_le = win_ld = 0.0
        for step in range(step + 1, last + 1):
            a_idx, p_idx, n_idx, _, _ = samp.collect_indices(batch_size)

            # a, p and n rows embedded together: one forward and one backward pass per step
            h = encoder._forward_pass(params, features[np.concatenate((a_idx, p_idx, n_idx))])
            le, ld, grad = batch_loss(h[-1], scores[a_idx], scores[n_idx], config.loss)
            sum_le = float(np.add.reduce(le))
            sum_ld = float(np.add.reduce(ld))
            mean_total = float(np.add.reduce(le + ld)) / batch_size
            if not np.isfinite(mean_total):
                raise DivergenceError(step, lr)

            encoder._backward_pass(params, h, grad, grads)
            np.multiply(grad_flat, inv_b, out=grad_flat)
            if not np.isfinite(grad_flat).all():
                raise DivergenceError(step, lr)
            grad_flat *= lr
            flat -= grad_flat

            win_total += mean_total
            win_le += sum_le / batch_size
            win_ld += sum_ld / batch_size

        proposed = samp.stats.proposed - proposed
        rate = (samp.stats.accepted - accepted) / proposed if proposed else 0.0
        mean_loss = win_total / steps
        log.windows.append(WindowRecord(last, mean_loss, win_le / steps, win_ld / steps, lr, rate))
        if steps < PLATEAU_WINDOW:
            break  # a partial window is the last one, and never moves the schedule
        if best is None or mean_loss < best * (1.0 - PLATEAU_MIN_REL_IMPROVEMENT):
            best, stalls = mean_loss, 0
        else:
            stalls += 1
            if stalls >= PLATEAU_PATIENCE:
                lr, stalls = lr / LR_DECAY_FACTOR, 0
    return params, log
