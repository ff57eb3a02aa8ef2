import gc
import json
import struct
import time

import numpy as np
import pytest

from avsep.model import ModelConfig
from avsep.trainer import TrainSettings, train_toy


def tiny_config(**over) -> ModelConfig:
    """A minimal model that still exercises every block."""
    defaults = dict(
        sample_rate=8000, enc_kernel=4, enc_stride=2,
        n_audio_channels=4, n_video_channels=4, depth=2,
        n_fusion_cycles=1, n_audio_cycles=1, ffn_channels=(4, 8, 4),
    )
    defaults.update(over)
    return ModelConfig(**defaults)


def rewrite_manifest(path, edit):
    """Apply ``edit`` to the checkpoint's manifest dict in place on disk."""
    blob = path.read_bytes()
    (mlen,) = struct.unpack_from("<Q", blob, 8)
    manifest = json.loads(blob[16 : 16 + mlen])
    edit(manifest)
    mbytes = json.dumps(manifest).encode()
    path.write_bytes(blob[:8] + struct.pack("<Q", len(mbytes)) + mbytes + blob[16 + mlen :])


@pytest.fixture(scope="session")
def toy_run():
    """One desk-scale overfit run shared by every test that needs a trained
    checkpoint; also records wall time so the budget can be asserted."""
    cfg = ModelConfig()
    settings = TrainSettings(seed=0, target_si_snri_db=10.5)
    t0 = time.perf_counter()
    result = train_toy(cfg, settings)
    elapsed = time.perf_counter() - t0
    return result, elapsed


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def refcount_only():
    """Collect no reference cycles during the test, so whatever it finds
    freed was freed by reference counting alone, as soon as it was dropped."""
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()
