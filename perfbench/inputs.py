"""Input generation and the output sketch the references are kept as.

Run as a script, it writes the separate-full inputs for one seed into a
directory: the full-scale model as an ``.iiac`` checkpoint, 1 s of 16 kHz
mixture as a PCM16 WAV and the target's 1x25 energy envelope as an
``.iiav`` visual feature. It runs in its own process, so neither its time
nor its memory lands in the measured worker.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from common import SKETCH_DIM, SKETCH_SEED, SRC, input_seed

sys.path.insert(0, str(SRC))

from avsep import data, model  # noqa: E402

CHECKPOINT = "model.iiac"
MIXTURE = "mixture.wav"
EMBEDDING = "speaker.iiav"


def make_separate_inputs(seed: int, work: Path) -> None:
    cfg = model.full_scale_config()
    model.save_checkpoint(model.build_params(cfg, seed=seed), cfg, work / CHECKPOINT)
    target, interferer = data.synth_sources(2, cfg.sample_rate, seed)
    mixture, _ = data.mix_at_snr(target, [interferer], 0.0)
    data.save_wav(work / MIXTURE, mixture, cfg.sample_rate)
    data.save_embedding(work / EMBEDDING, data.energy_envelope(target, cfg.sample_rate))


_PROJECTIONS: dict[int, np.ndarray] = {}


def sketch(wave: np.ndarray) -> np.ndarray:
    """A fixed random projection of a waveform onto SKETCH_DIM axes. It keeps
    the L2 distance between two waveforms to within a few tens of percent,
    so comparing sketches compares the waveforms without storing them."""
    n = wave.shape[-1]
    if n not in _PROJECTIONS:
        rng = np.random.default_rng(SKETCH_SEED)
        _PROJECTIONS[n] = rng.standard_normal((SKETCH_DIM, n)) / np.sqrt(n)
    return _PROJECTIONS[n] @ np.asarray(wave, dtype=np.float64)


def sketch_error(wave: np.ndarray, reference: list[float]) -> float:
    ref = np.asarray(reference, dtype=np.float64)
    return float(np.linalg.norm(sketch(wave) - ref) / np.linalg.norm(ref))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", type=Path, required=True)
    args = ap.parse_args(argv)
    make_separate_inputs(input_seed(args.seed), args.dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
