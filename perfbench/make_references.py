"""Regenerates references.json: the outputs every benchmark run is checked
against, one entry per input set.

    python3 perfbench/make_references.py

For each input set it writes the separate-full inputs, separates them at
the full cycle count and at ``--fast`` through the same calls the worker
makes, and keeps a sketch of each waveform (see ``inputs.sketch``); it also
runs the fixed-length toy training and keeps the final SI-SNRi. Run it only
when a change to the program is meant to change these outputs, and say so
in the change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from dataclasses import replace

import common

if __name__ == "__main__" and os.environ.get("OPENBLAS_NUM_THREADS") != str(
        common.blas_threads()):
    # the references depend on the BLAS thread count: pin it, as run.py does,
    # before numpy is imported
    os.execve(sys.executable, [sys.executable, *sys.argv], common.worker_env())

sys.path.insert(0, str(common.SRC))

from avsep import cli, data, model, trainer  # noqa: E402
from avsep.tensor import Tensor  # noqa: E402

import inputs  # noqa: E402
from worker import train_settings  # noqa: E402


def separate_sketches(seed: int) -> dict:
    work = common.WORK_DIR / f"references-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        inputs.make_separate_inputs(seed, work)
        params, cfg = model.load_checkpoint(work / inputs.CHECKPOINT)
        mixture, _ = data.load_wav(work / inputs.MIXTURE)
        feat = Tensor(data.load_embedding(work / inputs.EMBEDDING))
        out = {}
        for kind, c in (("full", cfg),
                        ("fast", replace(cfg, n_audio_cycles=cli.FAST_AUDIO_CYCLES))):
            wave = model.separate(Tensor(mixture[None, :]), feat, c, params).waveform.data[0]
            out[kind] = [float(v) for v in inputs.sketch(wave)]
        return out
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.parse_args(argv)
    refs = {
        "generated_at_commit": common.commit_id(),
        "source_sha256": common.source_digest(),
        "blas_threads": common.blas_threads(),
        "sketch": {"dim": common.SKETCH_DIM, "seed": common.SKETCH_SEED},
        "tolerances": {"separate_rel": common.SEPARATE_REL_TOL,
                       "train_snri_db": common.TRAIN_SNRI_TOL_DB},
        "separate-full": {},
        "train-toy": {},
    }
    for seed in range(common.N_INPUT_SETS):
        refs["separate-full"][str(seed)] = separate_sketches(seed)
        result = trainer.train_toy(model.ModelConfig(), train_settings(seed))
        refs["train-toy"][str(seed)] = result.final_si_snri_db
        print(f"input set {seed}: final SI-SNRi {result.final_si_snri_db:.4f} dB",
              file=sys.stderr)
    common.REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
