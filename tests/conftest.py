"""Session-wide fixtures: the seed-7 benchmark and its trained model.

The benchmark model takes most of the suite's time to train, so it is
trained once per session and shared by the acceptance criteria and the
trainer's regression test.
"""

import pytest

from aespace import synth, trainer
from aespace.loss import LossConfig
from aespace.trainer import TrainConfig

BENCH_SEED = 7


def _train_benchmark(dataset, directional=True):
    config = TrainConfig(
        max_steps=30000, seed=BENCH_SEED,
        loss=LossConfig(directional_enabled=directional),
    )
    return trainer.train(dataset, config)


@pytest.fixture(scope="session")
def train_benchmark():
    """Trains a model on a dataset with the benchmark's ``TrainConfig``."""
    return _train_benchmark


@pytest.fixture(scope="session")
def benchmark_dataset():
    return synth.generate(
        synth.SynthConfig(n=2000, d_in=16, noise_sigma=0.05, seed=BENCH_SEED)
    )


@pytest.fixture(scope="session")
def benchmark_model(benchmark_dataset):
    return _train_benchmark(benchmark_dataset)
