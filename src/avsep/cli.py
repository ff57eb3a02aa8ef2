"""Command-line entry point.

Exit codes: 0 success, 1 partial failure, 2 usage/format error,
3 config conflict.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from dataclasses import replace

import numpy as np

from . import checks, metrics, runconfig
from .data import load_embedding, load_wav, save_wav
from .errors import ConfigConflictError, ConfigError, FormatError, GeometryError, TrainingError
from .model import (
    full_scale_config,
    load_checkpoint,
    mac_breakdown,
    param_breakdown,
    save_checkpoint,
    separate,
)
from .tensor import Tensor
from .trainer import train_toy

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_USAGE = 2
EXIT_CONFLICT = 3

FAST_AUDIO_CYCLES = 6
# train-toy's history CSV: column -> format of its value
HISTORY_COLUMNS = {"epoch": "d", "train_loss": ".6f", "val_si_snri": ".6f", "lr": "g",
                   "grad_norm": ".6g", "step_s": ".6f", "fwd_s": ".6f", "bwd_s": ".6f",
                   "opt_s": ".6f", "peak_rss_mb": ".2f"}


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
    if args.config and cfg != _load_configs(args.config)[0]:
        raise ConfigConflictError("checkpoint config disagrees with the supplied config")
    return params, cfg


def _check_dest(path) -> None:
    """Refuse an output path whose directory does not exist, before any
    load or step."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise ConfigError(f"{path}: directory {folder} does not exist")


def _fast(cfg, fast: bool):
    """``cfg``, cut to at most ``FAST_AUDIO_CYCLES`` audio-only cycles if ``fast``."""
    if not fast:
        return cfg
    return replace(cfg, n_audio_cycles=min(FAST_AUDIO_CYCLES, cfg.n_audio_cycles))


def cmd_separate(args) -> int:
    _check_dest(f"{args.out}.0.wav")
    params, cfg = _load_model(args)
    if not (cfg.audio_only or args.embedding):
        raise ConfigError("a fused checkpoint needs at least one --embedding")
    cfg = _fast(cfg, args.fast)
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
    hist_path = args.history or (str(args.out) + ".history.csv")
    _check_dest(args.out)
    _check_dest(hist_path)
    result = train_toy(*_load_configs(args.config), log=lambda m: print(m, file=sys.stderr))
    save_checkpoint(result.params, result.cfg, args.out)
    with open(hist_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(HISTORY_COLUMNS)
        w.writerows([format(row[k], spec) for k, spec in HISTORY_COLUMNS.items()]
                    for row in result.history)
    print(f"final si-snri: {_clamp_db(result.final_si_snri_db):.2f} dB "
          f"({result.steps_run} steps)")
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.out:
        _check_dest(args.out)
    params, cfg = _load_model(args)
    try:
        with open(args.pairs, "r", encoding="utf-8-sig", newline="") as fh:
            rows = [r for r in csv.reader(fh) if r and any(c.strip() for c in r)]
    except (UnicodeDecodeError, csv.Error) as e:
        raise FormatError(f"{args.pairs}: unreadable pairs manifest ({e})") from e
    if rows and [c.strip().casefold() for c in rows[0][:2]] == ["mixture", "reference"]:
        rows = rows[1:]
    if not rows:
        raise FormatError("empty pairs manifest")

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
    cfg = _fast(full_scale_config() if args.full_scale else _load_configs(args.config)[0],
                args.fast)
    macs = mac_breakdown(cfg, args.audio_seconds)  # refuses a bad duration before any output
    for title, rows in (("parameters", param_breakdown(cfg)),
                        (f"macs @ {args.audio_seconds:g}s", macs)):
        print(f"{title}: {sum(n for _, n in rows)}")
        for name, n in rows:
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
                   help=f"run at most {FAST_AUDIO_CYCLES} audio-only refinement cycles")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("train-toy", help="overfit a synthetic mixture and save a checkpoint")
    p.add_argument("--config", help="run-config file (key = value lines)")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--history", help="loss-history CSV path (default: OUT.history.csv)")
    p.set_defaults(func=cmd_train_toy)

    p = sub.add_parser("eval", help="score separated outputs against references")
    p.add_argument("--pairs", required=True,
                   help="CSV manifest: mixture,reference,embedding; a header row, "
                        "in any case, is skipped")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", help="optional run-config; must agree with the checkpoint")
    p.add_argument("--out", help="report CSV path (default: stdout)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="report parameter and MAC counts")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--config", help="run-config file")
    source.add_argument("--full-scale", action="store_true",
                        help="use the full-scale reference configuration")
    p.add_argument("--fast", action="store_true",
                   help=f"count with at most {FAST_AUDIO_CYCLES} audio-only refinement cycles")
    p.add_argument("--audio-seconds", type=float, default=1.0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gradcheck", help="finite-difference check of every backward pass")
    p.set_defaults(func=cmd_gradcheck)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        # every non-finite result ends in a named error below, so numpy's
        # floating-point warnings would only repeat it with source lines
        with np.errstate(all="ignore"):
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
