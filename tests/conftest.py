import os

# one BLAS thread for the whole suite, set before numpy loads (it reads
# these once): a threaded BLAS beside another busy process slows sharply
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from driftkit.data import Dataset  # noqa: E402
from driftkit.model import ModelConfig, init_model  # noqa: E402


def make_dataset(n=40, dim=4, seed=0, separation=2.0, start_ts=1_600_000_000):
    """Linearly separable-ish toy dataset with increasing timestamps."""
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < 0.5).astype(np.uint8)
    X = rng.standard_normal((n, dim))
    X[y == 1, 0] += separation
    X[y == 0, 0] -= separation
    ts = start_ts + np.arange(n, dtype=np.int64) * 3600
    return Dataset(X, y, ts, name="toy")


@pytest.fixture
def toy_dataset():
    return make_dataset()


def tiny_model(input_dim=4, trunk=8, blocks=1, heads=(6,), dropout=0.0, seed=0):
    cfg = ModelConfig(
        input_dim=input_dim,
        trunk_width=trunk,
        n_residual_blocks=blocks,
        dropout_rate=dropout,
        head_widths=heads,
    )
    return init_model(cfg, seed)


@pytest.fixture
def tiny_params():
    return tiny_model()
