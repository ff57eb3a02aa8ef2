"""Waveform/embedding file I/O, synthetic sources, and SNR-controlled
mixing.

All randomness flows from explicit seeds or caller-supplied generators;
nothing reads ambient entropy.
"""

from __future__ import annotations

import os
import struct
import wave as _wave

import numpy as np

from .errors import FormatError, GeometryError
from .model import VIDEO_FPS
from .tensor import all_finite

EMBEDDING_MAGIC = b"IIAV"


# ---------------------------------------------------------------------------
# WAV (PCM16 mono)


def load_wav(path) -> tuple[np.ndarray, int]:
    """Read a mono PCM16 WAV into float32 samples in [-1, 1)."""
    try:
        with _wave.open(str(path), "rb") as fh:
            if fh.getnchannels() != 1:
                raise FormatError(f"{path}: only mono supported, got {fh.getnchannels()} channels")
            if fh.getsampwidth() != 2:
                raise FormatError(f"{path}: only 16-bit PCM supported")
            raw = fh.readframes(fh.getnframes())
            rate = fh.getframerate()
    except (_wave.Error, EOFError, RuntimeError) as e:
        # wave raises EOFError on a truncated header, RuntimeError on a bad chunk seek
        raise FormatError(f"{path}: malformed WAV ({e or type(e).__name__})") from e
    if len(raw) % 2:
        raise FormatError(f"{path}: truncated PCM16 sample data")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float32) / 32768.0
    return samples, rate


def save_wav(path, samples: np.ndarray, sample_rate: int) -> None:
    """Quantize (round half away from zero, clipped) and write PCM16 mono.
    Non-finite samples are a FormatError, raised before the file is opened."""
    x = np.asarray(samples, dtype=np.float64).reshape(-1)
    if not all_finite(x):
        raise FormatError(f"{path}: non-finite samples; nothing written")
    x = x * 32768.0
    q = np.sign(x) * np.floor(np.abs(x) + 0.5)
    q = np.clip(q, -32768, 32767).astype("<i2")
    # wave.open(path) leaves a half-built writer whose __del__ raises when
    # the open fails, so the file is opened first
    with open(path, "wb") as f, _wave.open(f, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sample_rate)
        fh.writeframes(q.tobytes())


# ---------------------------------------------------------------------------
# mixing


def mix_at_snr(
    target: np.ndarray, interferers: list[np.ndarray], snr_db: float
) -> tuple[np.ndarray, np.ndarray]:
    """Scale the summed interferers so the target-to-interference ratio is
    exactly snr_db; returns (mixture, scaled interferer sum)."""
    target = np.asarray(target, dtype=np.float64)
    acc = np.zeros_like(target)
    for s in interferers:
        s = np.asarray(s, dtype=np.float64)
        if s.shape != target.shape:
            raise GeometryError("all sources must have the same length")
        acc = acc + s
    pt = float(target @ target)
    pi = float(acc @ acc)
    if pt == 0.0 or pi == 0.0:
        raise ValueError("zero-power target or interference")
    g = np.sqrt(pt / (pi * 10.0 ** (snr_db / 10.0)))
    scaled = g * acc
    return target + scaled, scaled


def synth_sources(n: int, length: int, seed: int) -> list[np.ndarray]:
    """Deterministic synthetic sources: 3 sinusoids per source in disjoint
    frequency bands plus a little noise, RMS-normalized to 0.1.

    Band k covers relative frequencies [(k+1)/(n+2), (k+2)/(n+2)) of
    Nyquist/2, so sources occupy non-overlapping spectra and stay nearly
    uncorrelated.
    """
    if n < 1:
        raise ValueError("need at least one source")
    out = np.empty((n, length))  # one request, so numpy refuses a pool too large at once
    rng = np.random.default_rng(seed)
    t = np.arange(length, dtype=np.float64)
    for k in range(n):
        lo = 0.25 * (k + 1) / (n + 2)
        hi = 0.25 * (k + 2) / (n + 2)
        freqs = rng.uniform(lo, hi, 3)  # cycles per sample
        phases = rng.uniform(0, 2 * np.pi, 3)
        amps = rng.uniform(0.5, 1.0, 3)
        sig = sum(a * np.sin(2 * np.pi * f * t + p) for a, f, p in zip(amps, freqs, phases))
        sig = sig + 0.02 * rng.standard_normal(length)
        rms = np.sqrt(np.mean(sig * sig))
        out[k] = 0.1 * sig / rms
    return list(out)


def remix(pool: list[np.ndarray], rng: np.random.Generator
          ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Dynamic mixing: draw 2 distinct sources from ``pool`` and an SNR
    uniform in [-5, 5] dB; returns (mixture, [target, scaled interferer])."""
    if len(pool) < 2:
        raise ValueError("pool must hold at least two sources")
    i, j = (int(k) for k in rng.choice(len(pool), size=2, replace=False))
    _, scaled = mix_at_snr(pool[i], [pool[j]], float(rng.uniform(-5.0, 5.0)))
    # pool[j] times its gain, not `scaled`, whose last bits differ: the draws' bits are pinned
    interferer = pool[j] * float(np.sqrt((scaled @ scaled) / (pool[j] @ pool[j])))
    return pool[i] + interferer, [pool[i], interferer]


# ---------------------------------------------------------------------------
# embedding files


def save_embedding(path, t: np.ndarray) -> None:
    arr = np.asarray(t, dtype="<f4")
    if arr.ndim != 2:
        raise GeometryError("embedding must be 2-D [channels x frames]")
    with open(path, "wb") as fh:
        fh.write(EMBEDDING_MAGIC)
        fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
        fh.write(np.ascontiguousarray(arr).tobytes())


def load_embedding(path) -> np.ndarray:
    """Read a ``.iiav`` file; its size is checked before its payload is read."""
    with open(path, "rb") as fh:
        head = fh.read(12)
        if head[:4] != EMBEDDING_MAGIC:
            raise FormatError(f"{path}: bad embedding magic")
        if len(head) < 12:
            raise FormatError(f"{path}: truncated embedding header")
        nv, tv = struct.unpack_from("<II", head, 4)
        size = os.fstat(fh.fileno()).st_size
        if size != 12 + 4 * nv * tv:
            raise FormatError(f"{path}: payload is {size - 12} bytes, header says {4 * nv * tv}")
        arr = np.empty((nv, tv), dtype="<f4")
        if fh.readinto(arr) != arr.nbytes:  # the file shrank after the size check
            raise FormatError(f"{path}: truncated embedding payload")
    if not all_finite(arr):
        raise FormatError(f"{path}: non-finite values in the embedding")
    return arr


def energy_envelope(wave: np.ndarray, sample_rate: int) -> np.ndarray:
    """Frame-wise RMS at the lip-frame rate: a [1 x T_v] visual-feature
    stand-in that genuinely tracks the target speaker."""
    wave = np.asarray(wave, dtype=np.float64).reshape(-1)
    t_v = (len(wave) * VIDEO_FPS) // sample_rate
    if t_v < 1:
        raise GeometryError("waveform too short for even one video frame")
    hop = len(wave) / t_v
    env = np.empty(t_v, dtype=np.float32)
    for i in range(t_v):
        seg = wave[int(i * hop) : int((i + 1) * hop)]
        env[i] = np.sqrt(np.mean(seg * seg)) if len(seg) else 0.0
    return env[None, :]
