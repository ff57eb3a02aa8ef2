"""Desk-scale training loop: Adam, global-norm clipping, plateau LR
halving, early stopping, and the toy overfit experiment."""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass

import numpy as np

from . import metrics
from .data import energy_envelope, mix_at_snr, remix, synth_sources
from .errors import ConfigError, TrainingError
from .model import ModelConfig, ModelParams, build_params, check_fields, named_tensors, separate
from .tensor import Tensor, all_finite


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
MIN_DELTA = 1e-6  # see ScheduleState


@dataclass
class AdamState:
    """Adam's learning rate, its step count and its moment buffers ``m``
    and ``v``, which the first :func:`adam_step` makes. The moment decays
    and the denominator's epsilon are ``ADAM_BETA1``, ``ADAM_BETA2`` and
    ``ADAM_EPS``."""

    lr: float
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


class FlatParams:
    """Named parameters whose ``data`` are views of one flat buffer in the
    order given. Marked, each one's ``grad`` is its view of a second one,
    which a backward adds into, so a parameter that gets no gradient has a
    zero slice. Parameters of two dtypes raise TypeError, not a cast."""

    def __init__(self, params: list[tuple[str, Tensor]]):
        self.params = params
        self.data = np.concatenate([t.data.ravel() for _, t in params],
                                   dtype=params[0][1].dtype, casting="no")
        self.grad = np.zeros_like(self.data)
        ends = np.cumsum([t.size for _, t in params]).tolist()
        self.spans = [slice(end - t.size, end) for end, (_, t) in zip(ends, params)]
        for span, (_, t) in zip(self.spans, params):
            t.data = self.data[span].reshape(t.shape)

    def mark(self, on: bool) -> None:
        """Mark the parameters for the tape, or make them plain data again."""
        for span, (_, t) in zip(self.spans, self.params):
            t.requires_grad = on
            t.grad = self.grad[span].reshape(t.shape) if on else None


def adam_step(flat: FlatParams, state: AdamState) -> None:
    """Bias-corrected Adam update of ``flat.data`` in place. It is
    elementwise, so each element gets the bits of a per-tensor update.
    Raises :class:`TrainingError` naming the first parameter with a
    non-finite gradient, before anything changes."""
    g = flat.grad
    if not all_finite(g):
        name = next(n for (n, _), span in zip(flat.params, flat.spans)
                    if not all_finite(g[span]))
        raise TrainingError(f"non-finite gradient for parameter {name!r}")
    if state.m is None:
        state.m, state.v = np.zeros_like(g), np.zeros_like(g)
    state.step += 1
    c1 = 1.0 - ADAM_BETA1 ** state.step
    c2 = 1.0 - ADAM_BETA2 ** state.step
    m, v = state.m, state.v
    # m += (1 - b1)(g - m); v += (1 - b2)(g^2 - v);
    # data - lr (m / c1) / (sqrt(v / c2) + eps), one buffer per term
    d = g - m
    d *= 1.0 - ADAM_BETA1
    m += d
    np.multiply(g, g, out=d)
    d -= v
    d *= 1.0 - ADAM_BETA2
    v += d
    np.divide(v, c2, out=d)
    np.sqrt(d, out=d)
    d += ADAM_EPS
    u = m / c1
    u *= state.lr
    u /= d
    flat.data -= u


def clip_global_norm(flat: FlatParams, max_norm: float) -> float:
    """Scale ``flat.grad`` in place so its L2 norm is at most max_norm;
    returns the pre-clip norm."""
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    sq = flat.grad.astype(np.float64)  # a copy, even of a float64 buffer
    sq *= sq
    total = 0.0
    for span in flat.spans:  # one sum per parameter fixes the norm's bits
        total += float(sq[span].sum())
    norm = math.sqrt(total)
    if norm > max_norm:
        flat.grad *= max_norm / norm
    return norm


@dataclass
class ScheduleState:
    """Plateau LR halving plus early stopping on the validation loss.

    Improvement means a strict decrease by more than ``MIN_DELTA``; it
    resets both counters. Halving resets only the LR counter.
    """

    plateau_patience: int
    stop_patience: int
    best: float = math.inf
    since_improve_lr: int = 0
    since_improve_stop: int = 0

    def update(self, val_loss: float, state: AdamState) -> bool:
        """Record one epoch's validation loss; returns True to stop."""
        if val_loss < self.best - MIN_DELTA:
            self.best = val_loss
            self.since_improve_lr = 0
            self.since_improve_stop = 0
            return False
        self.since_improve_lr += 1
        self.since_improve_stop += 1
        if self.since_improve_lr >= self.plateau_patience:
            state.lr *= 0.5
            self.since_improve_lr = 0
        return self.since_improve_stop >= self.stop_patience


MAX_MIXTURE_SECONDS = 60.0  # the toy run holds a whole mixture's tape in memory
MAX_ABS_SNR_DB = 120.0  # inside the 144 dB (24-bit) resolution of a float32 mixture


@dataclass
class TrainSettings:
    lr: float = 0.001
    max_steps: int = 500
    steps_per_epoch: int = 25
    clip_norm: float = 5.0
    plateau_patience: int = 3
    stop_patience: int = 6
    seed: int = 0
    snr_db: float = 0.0
    mixture_seconds: float = 0.5
    target_si_snri_db: float = 12.0  # early exit once the toy run clears this
    dynamic_mix: bool = False
    pool_size: int = 4

    def __post_init__(self):
        check_fields(self, {"seed": 0, "pool_size": 2})
        for key in ("lr", "clip_norm", "mixture_seconds"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{key} must be finite and positive, got {value}")
        if self.mixture_seconds > MAX_MIXTURE_SECONDS:
            raise ConfigError(f"mixture_seconds must be at most {MAX_MIXTURE_SECONDS:g}, "
                              f"got {self.mixture_seconds}")
        if not abs(self.snr_db) <= MAX_ABS_SNR_DB:  # NaN fails too
            raise ConfigError(f"snr_db must be between -{MAX_ABS_SNR_DB:g} and "
                              f"{MAX_ABS_SNR_DB:g} dB, got {self.snr_db}")


@dataclass
class TrainResult:
    """A toy run's outcome. ``final_si_snri_db`` is the last history row's
    ``val_si_snri``: every epoch ends by validating its parameters."""

    params: ModelParams
    cfg: ModelConfig
    # epoch, train_loss, val_si_snri, lr, grad_norm, step_s, fwd_s, bwd_s, opt_s,
    # peak_rss_mb; step_s and the three stage times (forward plus loss,
    # backward, optimizer) are per-step means
    history: list[dict]
    steps_run: int
    mixture: np.ndarray
    reference: np.ndarray
    video_feat: np.ndarray | None

    @property
    def final_si_snri_db(self) -> float:
        return self.history[-1]["val_si_snri"]


def _separate(mixture: np.ndarray, video_feat: np.ndarray | None, cfg, p, rng=None):
    return separate(Tensor(mixture[None, :].astype(np.float32)),
                    None if video_feat is None else Tensor(video_feat.astype(np.float32)),
                    cfg, p, rng)


def _forward_loss_av(mixture, video_feat, refs, cfg, p, rng) -> Tensor:
    """Separate one mixture, with dropout drawn from ``rng``, and return the
    PIT loss of its ``n_speakers`` outputs against the first ``refs``."""
    out = _separate(mixture, video_feat, cfg, p, rng)
    return metrics.pit_si_snr_loss(out.waveforms, refs[:cfg.n_speakers])


def train_toy(cfg: ModelConfig, settings: TrainSettings,
              log=None) -> TrainResult:
    """Overfit a single synthetic two-source mixture (or dynamically mixed
    pool) and return the trained parameters plus the loss history. A
    mixture or model too large to allocate raises ConfigError; a non-finite
    loss, gradient or validation output raises TrainingError."""
    if cfg.n_speakers > 2:
        raise ConfigError(f"n_speakers = {cfg.n_speakers}, but the toy mixture has two sources")
    rng = np.random.default_rng(settings.seed)
    length = int(round(settings.mixture_seconds * cfg.sample_rate))
    if length < cfg.enc_kernel:
        raise ConfigError(f"mixture_seconds = {settings.mixture_seconds:g} is {length} samples, "
                          f"shorter than one encoder kernel ({cfg.enc_kernel} samples)")
    n_sources = settings.pool_size if settings.dynamic_mix else 2
    try:
        pool = synth_sources(n_sources, length, settings.seed)
    except (MemoryError, ValueError) as e:  # numpy: out of memory, or "array is too big"
        raise ConfigError(f"{n_sources} sources of {length} samples (mixture_seconds = "
                          f"{settings.mixture_seconds:g} at sample_rate = {cfg.sample_rate}) "
                          f"are too large to allocate: {e}") from e
    target, interferer = pool[0], pool[1]
    mixture, scaled_interf = mix_at_snr(target, [interferer], settings.snr_db)
    video_feat = None if cfg.audio_only else energy_envelope(target, cfg.sample_rate)

    p = build_params(cfg, seed=settings.seed)
    flat = FlatParams(list(named_tensors(p)))
    state = AdamState(lr=settings.lr)
    sched = ScheduleState(plateau_patience=settings.plateau_patience,
                          stop_patience=settings.stop_patience)
    val_refs = [target, scaled_interf][:cfg.n_speakers]
    val_base = sum(metrics.si_snr(r, mixture) for r in val_refs) / len(val_refs)

    history: list[dict] = []
    steps_run = 0
    epoch = 0
    while steps_run < settings.max_steps:
        epoch += 1
        n_steps = min(settings.steps_per_epoch, settings.max_steps - steps_run)
        flat.mark(True)
        fwd_s = bwd_s = opt_s = 0.0
        start = time.perf_counter()
        for _ in range(n_steps):
            t0 = time.perf_counter()  # forward plus loss, with the step's data
            if settings.dynamic_mix:
                mix, refs = remix(pool, rng)
                vfeat = None if cfg.audio_only else energy_envelope(refs[0], cfg.sample_rate)
            else:
                mix, refs, vfeat = mixture, [target, scaled_interf], video_feat
            loss = _forward_loss_av(mix, vfeat, refs, cfg, p, rng)
            train_loss = loss.item()
            if not math.isfinite(train_loss):
                raise TrainingError(f"non-finite loss at step {steps_run}")
            t1 = time.perf_counter()
            loss.backward()
            t2 = time.perf_counter()
            grad_norm = clip_global_norm(flat, settings.clip_norm)
            adam_step(flat, state)
            flat.grad.fill(0)
            t3 = time.perf_counter()
            fwd_s += t1 - t0
            bwd_s += t2 - t1
            opt_s += t3 - t2
            steps_run += 1
        step_s = (time.perf_counter() - start) / n_steps
        fwd_s, bwd_s, opt_s = fwd_s / n_steps, bwd_s / n_steps, opt_s / n_steps

        flat.mark(False)  # so validation records no tape
        waves = [w.data[0] for w in _separate(mixture, video_feat, cfg, p).waveforms]
        if not all(all_finite(w) for w in waves):
            raise TrainingError(f"non-finite validation output after step {steps_run}")
        _, val = metrics.pit_best(val_refs, waves)
        del waves  # so no separated output lives into the next epoch
        val_si_snri = val - val_base
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
        # train_loss and grad_norm (pre-clip) are the epoch's last step's
        history.append({"epoch": epoch, "train_loss": train_loss,
                        "val_si_snri": val_si_snri, "lr": state.lr,
                        "grad_norm": grad_norm, "step_s": step_s, "fwd_s": fwd_s,
                        "bwd_s": bwd_s, "opt_s": opt_s, "peak_rss_mb": peak_rss_mb})
        if log:
            log(f"epoch {epoch}: loss {train_loss:.3f}  "
                f"si-snri {val_si_snri:.2f} dB  lr {state.lr:g}  "
                f"grad-norm {grad_norm:.3g}  step {step_s * 1e3:.1f} ms "
                f"(bwd/fwd {bwd_s / fwd_s:.2f})  peak-rss {peak_rss_mb:.1f} MB")
        if val_si_snri >= settings.target_si_snri_db or sched.update(-val_si_snri, state):
            break

    return TrainResult(params=p, cfg=cfg, history=history, steps_run=steps_run,
                       mixture=mixture, reference=target, video_feat=video_feat)
