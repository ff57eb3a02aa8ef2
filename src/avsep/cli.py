"""Command-line entry point.

Exit codes: 0 success, 1 partial failure, 2 usage/format error,
3 config conflict.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace

from . import checks, metrics, runconfig
from .data import load_embedding, load_wav, save_wav
from .errors import ConfigConflictError, ConfigError, FormatError, GeometryError, TrainingError
from .model import (
    check_config_compatible,
    count_macs,
    count_params,
    load_checkpoint,
    mac_breakdown,
    param_breakdown,
    save_checkpoint,
    separate,
)
from .tensor import Tensor
from .trainer import train_toy

__all__ = ["main"]

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_USAGE = 2
EXIT_CONFLICT = 3

FAST_AUDIO_CYCLES = 6


def _clamp_db(x: float) -> float:
    return min(max(x, -metrics.DISPLAY_CLAMP_DB), metrics.DISPLAY_CLAMP_DB)


def _load_configs(path):
    values = runconfig.parse_file(path) if path else {}
    return runconfig.make_model_config(values), runconfig.make_train_settings(values)


# ---------------------------------------------------------------------------
# subcommands


def _load_model(args):
    """The checkpoint's parameters and config, checked against ``--config``."""
    params, cfg = load_checkpoint(args.checkpoint)
    if args.config:
        check_config_compatible(cfg, _load_configs(args.config)[0])
    return params, cfg


def cmd_separate(args) -> int:
    params, cfg = _load_model(args)
    if not (cfg.audio_only or args.embedding):
        print("error: a fused checkpoint needs at least one --embedding", file=sys.stderr)
        return EXIT_USAGE
    if args.fast:
        cfg = replace(cfg, n_audio_cycles=FAST_AUDIO_CYCLES)
    mixture, rate = load_wav(args.mixture)
    if rate != cfg.sample_rate:
        raise FormatError(
            f"{args.mixture}: sample rate {rate} != model rate {cfg.sample_rate}")
    wave = Tensor(mixture[None, :])
    if cfg.audio_only:  # one output per speaker, no embedding read
        waves = separate(wave, None, cfg, params).waveforms
    else:  # one output per embedding, computed as the loop asks for it
        waves = (separate(wave, Tensor(load_embedding(e)), cfg, params).waveform
                 for e in args.embedding)
    for k, out in enumerate(waves):
        dest = f"{args.out}.{k}.wav"
        save_wav(dest, out.data[0], cfg.sample_rate)
        print(f"wrote {dest}")
    return EXIT_OK


def cmd_train_toy(args) -> int:
    cfg, settings = _load_configs(args.config)
    if args.audio_only:
        cfg = replace(cfg, audio_only=True, n_speakers=2)
    if args.dynamic_mix:
        settings = replace(settings, dynamic_mix=True)
    result = train_toy(cfg, settings, log=lambda m: print(m, file=sys.stderr))
    save_checkpoint(result.params, result.cfg, args.out)
    hist_path = args.history or (str(args.out) + ".history.csv")
    with open(hist_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "train_loss", "val_si_snri", "lr", "grad_norm", "step_s"])
        for row in result.history:
            w.writerow([row["epoch"], f"{row['train_loss']:.6f}",
                        f"{row['val_si_snri']:.6f}", f"{row['lr']:g}",
                        f"{row['grad_norm']:.6g}", f"{row['step_s']:.6f}"])
    print(f"final si-snri: {_clamp_db(result.final_si_snri_db):.2f} dB "
          f"({result.steps_run} steps)")
    return EXIT_OK


def cmd_eval(args) -> int:
    params, cfg = _load_model(args)
    try:
        with open(args.pairs, "r", encoding="utf-8", newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and any(c.strip() for c in r)]
    except (UnicodeDecodeError, csv.Error) as e:
        raise FormatError(f"{args.pairs}: unreadable pairs manifest ({e})") from e
    if rows and rows[0][:2] == ["mixture", "reference"]:
        rows = rows[1:]
    if not rows:
        print("error: empty pairs manifest", file=sys.stderr)
        return EXIT_USAGE

    out_fh = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.writer(out_fh)
    writer.writerow(["path", "si_snri", "sdri"])
    failed = 0
    vals: list[tuple[float, float]] = []
    for row in rows:
        try:
            if len(row) != 3:
                raise FormatError(f"expected 3 columns, got {len(row)}")
            mix_path, ref_path, emb_path = (c.strip() for c in row)
            mixture, rate = load_wav(mix_path)
            reference, rrate = load_wav(ref_path)
            if rate != cfg.sample_rate or rrate != cfg.sample_rate:
                raise FormatError("sample rate does not match the model")
            if len(reference) != len(mixture):
                raise FormatError("mixture/reference length mismatch")
            feat = None if cfg.audio_only else Tensor(load_embedding(emb_path))
            out = separate(Tensor(mixture[None, :]), feat, cfg, params)
            # a multi-speaker model is scored on its output nearest the reference
            est = max((w.data[0] for w in out.waveforms),
                      key=lambda e: metrics.si_snr(reference, e))
            si = _clamp_db(metrics.si_snri(mixture, reference, est))
            sd = _clamp_db(metrics.sdri(mixture, reference, est))
            writer.writerow([mix_path, f"{si:.4f}", f"{sd:.4f}"])
            vals.append((si, sd))
        except (FormatError, GeometryError, OSError, ValueError) as e:
            failed += 1
            print(f"error: row {row}: {e}", file=sys.stderr)
    if vals:
        writer.writerow(["mean",
                         f"{sum(v[0] for v in vals) / len(vals):.4f}",
                         f"{sum(v[1] for v in vals) / len(vals):.4f}"])
    if out_fh is not sys.stdout:
        out_fh.close()
    return EXIT_PARTIAL if failed else EXIT_OK


def cmd_bench(args) -> int:
    if args.full_scale:
        from .model import full_scale_config
        cfg = full_scale_config()
    else:
        cfg, _ = _load_configs(args.config)
    if args.fast:
        cfg = replace(cfg, n_audio_cycles=FAST_AUDIO_CYCLES)
    print(f"parameters: {count_params(cfg)}")
    for name, n in param_breakdown(cfg):
        print(f"  {name:16s} {n}")
    macs = count_macs(cfg, args.audio_seconds)
    print(f"macs @ {args.audio_seconds:g}s: {macs}")
    for name, n in mac_breakdown(cfg, args.audio_seconds):
        print(f"  {name:16s} {n}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    results = checks.run_all()
    bad = 0
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{status}  {r.name:24s} max rel err {r.max_rel_err:.3e}")
        bad += not r.passed
    return EXIT_OK if bad == 0 else EXIT_PARTIAL


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="avsep",
                                 description="audio-visual source separation toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("separate", help="separate a mixture with a trained checkpoint")
    p.add_argument("--mixture", required=True, help="input mixture WAV (PCM16 mono)")
    p.add_argument("--embedding", action="append",
                   help="visual-feature file; repeat once per target speaker "
                        "(an audio-only checkpoint reads none)")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="output prefix; writes PREFIX.k.wav")
    p.add_argument("--config", help="optional run-config; must agree with the checkpoint")
    p.add_argument("--fast", action="store_true",
                   help=f"run {FAST_AUDIO_CYCLES} audio-only refinement cycles")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("train-toy", help="overfit a synthetic mixture and save a checkpoint")
    p.add_argument("--config", help="run-config file (key = value lines)")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--history", help="loss-history CSV path (default: OUT.history.csv)")
    p.add_argument("--audio-only", action="store_true",
                   help="train the two-speaker audio-only variant with PIT")
    p.add_argument("--dynamic-mix", action="store_true",
                   help="remix random source pairs at random gains every step")
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("eval", help="score separated outputs against references")
    p.add_argument("--pairs", required=True,
                   help="CSV manifest: mixture,reference,embedding")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", help="optional run-config; must agree with the checkpoint")
    p.add_argument("--out", help="report CSV path (default: stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="report parameter and MAC counts")
    p.add_argument("--config", help="run-config file")
    p.add_argument("--full-scale", action="store_true",
                   help="use the full-scale reference configuration")
    p.add_argument("--fast", action="store_true",
                   help=f"count with {FAST_AUDIO_CYCLES} audio-only cycles")
    p.add_argument("--audio-seconds", type=float, default=1.0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gradcheck", help="finite-difference check of every backward pass")
    p.set_defaults(func=cmd_gradcheck)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigConflictError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFLICT
    except (ConfigError, FormatError, GeometryError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except TrainingError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARTIAL


if __name__ == "__main__":
    sys.exit(main())
