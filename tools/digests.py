"""Print one ``name sha256`` line per output of the program, so that two
trees can be compared bit for bit. Run it once per tree and diff the two
outputs:

    PYTHONPATH=src python3 tools/digests.py > digests.txt

The lines cover:

- the 32-set train-toy sweep as perfbench's train-toy workload runs it
  (``ModelConfig()``, 40 steps, 10 per epoch, input sets 0..31): each
  set's history without its timing and memory columns, final SI-SNRi,
  steps run and saved ``.iiac`` bytes;
- two 4-step ``train-toy`` runs from run-config keys: the two-speaker
  audio-only model (``audio_only = true``, ``n_speakers = 2``) and dynamic
  mixing (``dynamic_mix = true``, ``pool_size = 4``). For each, its
  history CSV without the timing and memory columns, and its ``.iiac``
  bytes;
- every ``checks.run_all()`` result;
- full-scale ``separate`` on 1 s through the CLI, full cycles and
  ``--fast``, on perfbench's seed-0 inputs, and paper-scale ``separate`` on
  the same mixture;
- one paper-scale 1 s training step (seed-0 weights, seed-7 dropout): its
  loss and its flat gradient;
- the ``build_params`` bytes of the toy, paper-scale, full-scale and
  two-speaker audio-only configurations, at float32 and float64.

It takes no options. On 2 cores it runs in about 40 s and peaks at about
650 MB of resident memory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from avsep import checks, cli, data, metrics
from avsep.model import (
    ModelConfig,
    build_params,
    full_scale_config,
    named_tensors,
    paper_scale_config,
    save_checkpoint,
    separate,
)
from avsep.tensor import Tensor
from avsep.trainer import FlatParams, TrainSettings, train_toy

SWEEP_SETS = 32
SWEEP_STEPS = 40
SWEEP_STEPS_PER_EPOCH = 10
HISTORY_KEYS = ("epoch", "train_loss", "val_si_snri", "lr", "grad_norm")  # no timing


def emit(name: str, blob: bytes) -> None:
    print(f"{name} {hashlib.sha256(blob).hexdigest()}", flush=True)


def sweep(work: Path) -> None:
    for s in range(SWEEP_SETS):
        settings = TrainSettings(
            seed=s, max_steps=SWEEP_STEPS, steps_per_epoch=SWEEP_STEPS_PER_EPOCH,
            target_si_snri_db=math.inf, plateau_patience=SWEEP_STEPS + 1,
            stop_patience=SWEEP_STEPS + 1)
        result = train_toy(ModelConfig(), settings)
        history = [{k: row[k] for k in HISTORY_KEYS} for row in result.history]
        path = work / f"toy{s}.iiac"
        save_checkpoint(result.params, result.cfg, path)
        emit(f"train-toy.{s}", repr((history, result.final_si_snri_db, result.steps_run)).encode()
             + path.read_bytes())


def toy_through_cli(work: Path, name: str, keys: str) -> None:
    """Run ``train-toy`` for 4 steps from the run-config lines ``keys``."""
    config, out = work / f"{name}.cfg", work / f"{name}.iiac"
    config.write_text(keys + "max_steps = 4\n")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        if cli.main(["train-toy", "--config", str(config), "--out", str(out)]) != cli.EXIT_OK:
            raise SystemExit(f"train-toy.{name}: train-toy failed")
    history = [line.split(",")[:len(HISTORY_KEYS)]
               for line in Path(f"{out}.history.csv").read_text().splitlines()]
    emit(f"train-toy.{name}", repr(history).encode() + out.read_bytes())


def separate_through_cli(work: Path, name: str, cfg: ModelConfig, runs: dict) -> None:
    """Write perfbench's seed-0 inputs at ``cfg``, then run the CLI's
    ``separate`` once per ``{suffix: extra arguments}`` entry of ``runs``."""
    target, interferer = data.synth_sources(2, cfg.sample_rate, 0)
    mixture, _ = data.mix_at_snr(target, [interferer], 0.0)
    data.save_wav(work / "mix.wav", mixture, cfg.sample_rate)
    data.save_embedding(work / "emb.iiav", data.energy_envelope(target, cfg.sample_rate))
    save_checkpoint(build_params(cfg, seed=0), cfg, work / "model.iiac")
    args = ["separate", "--mixture", str(work / "mix.wav"), "--embedding", str(work / "emb.iiav"),
            "--checkpoint", str(work / "model.iiac"), "--out", str(work / "out")]
    for suffix, extra in runs.items():
        with contextlib.redirect_stdout(io.StringIO()):  # its "wrote ..." line
            if cli.main(args + extra) != cli.EXIT_OK:
                raise SystemExit(f"{name}{suffix}: separate failed")
        emit(name + suffix, (work / "out.0.wav").read_bytes())


def paper_step() -> None:
    cfg = paper_scale_config()
    target, interferer = data.synth_sources(2, cfg.sample_rate, 0)
    mixture, _ = data.mix_at_snr(target, [interferer], 0.0)
    p = build_params(cfg, seed=0)
    flat = FlatParams(list(named_tensors(p)))
    flat.mark(True)
    feat = Tensor(data.energy_envelope(target, cfg.sample_rate).astype(np.float32))
    out = separate(Tensor(mixture[None, :].astype(np.float32)), feat, cfg, p,
                   np.random.default_rng(7))
    loss = metrics.si_snr_loss(out.waveform, target[None, :])
    loss.backward()
    emit("paper-step.loss", repr(loss.item()).encode())
    emit("paper-step.grad", flat.grad.tobytes())


def main() -> int:
    if len(sys.argv) > 1:
        raise SystemExit(f"usage: {sys.argv[0]} (takes no options)")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        sweep(work)
        toy_through_cli(work, "audio-only", "audio_only = true\nn_speakers = 2\n")
        toy_through_cli(work, "dynamic-mix", "dynamic_mix = true\npool_size = 4\n")
        for r in checks.run_all():
            emit(f"checks.{r.name}", repr(r).encode())
        separate_through_cli(work, "separate-full", full_scale_config(),
                             {"": [], "-fast": ["--fast"]})
        separate_through_cli(work, "separate-paper", paper_scale_config(), {"": []})
    paper_step()
    configs = {"toy": ModelConfig(), "paper": paper_scale_config(), "full": full_scale_config(),
               "audio-only": ModelConfig(audio_only=True, n_speakers=2)}
    for name, cfg in configs.items():
        for dtype in (np.float32, np.float64):
            p = build_params(cfg, seed=0, dtype=dtype)
            emit(f"build-params.{name}.{np.dtype(dtype).name}",
                 b"".join(t.data.tobytes() for _, t in named_tensors(p)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
