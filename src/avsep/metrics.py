"""Separation quality metrics and the training objective.

All dB-valued functions return ``math.inf`` (the documented sentinel) when
the residual is exactly zero. :func:`si_snr` returns ``-math.inf`` when
the estimate's projection on the reference is zero (an all-zero or an
orthogonal estimate), which is checked first, so a silent output never
scores as a perfect one. An improvement of a sentinel over the same one
is 0.0. They never return NaN, and a non-finite signal raises
``ValueError``. Report writers clamp the sentinels for display,
see :data:`DISPLAY_CLAMP_DB`.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from . import tensor as T
from .tensor import Tensor

DISPLAY_CLAMP_DB = 60.0
_LOG10 = math.log(10.0)


def _flat(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite signal")
    return a


def si_snr(reference, estimate) -> float:
    """Scale-invariant SNR in dB.

    The estimate is projected onto the reference (omega = <est, ref> /
    <ref, ref>); the ratio compares the projected target power with the
    residual power. No mean subtraction is applied.
    """
    a = _flat(reference)
    est = _flat(estimate)
    if a.shape != est.shape:
        raise ValueError("reference/estimate length mismatch")
    energy = float(a @ a)
    if energy == 0.0:
        raise ValueError("reference signal is all zero")
    omega = float(est @ a) / energy
    target = omega * a
    target_pow = float(target @ target)
    if target_pow == 0.0:
        return -math.inf
    residual = est - target
    res_pow = float(residual @ residual)
    if res_pow == 0.0:
        return math.inf
    return 10.0 * math.log10(target_pow / res_pow)


def si_snri(mixture, reference, estimate) -> float:
    """Improvement of the estimate over the unprocessed mixture."""
    est, mix = si_snr(reference, estimate), si_snr(reference, mixture)
    return 0.0 if est == mix else est - mix  # the same sentinel twice is no improvement


def sdr(reference, estimate) -> float:
    """Signal-to-distortion ratio in dB (not scale invariant)."""
    a = _flat(reference)
    est = _flat(estimate)
    if a.shape != est.shape:
        raise ValueError("reference/estimate length mismatch")
    diff = a - est
    dist = float(diff @ diff)
    if dist == 0.0:
        return math.inf
    return 10.0 * math.log10(float(a @ a) / dist)


def sdri(mixture, reference, estimate) -> float:
    est, mix = sdr(reference, estimate), sdr(reference, mixture)
    return 0.0 if est == mix else est - mix


def pit_best(references: Sequence, estimates: Sequence) -> tuple[tuple[int, ...], float]:
    """Exhaustive assignment search: the permutation of estimates that
    maximizes the mean SI-SNR against the references.

    Ties keep the lexicographically smallest permutation (permutations are
    enumerated in lexicographic order and replaced only on strict
    improvement).
    """
    c = len(references)
    if c != len(estimates):
        raise ValueError("reference/estimate count mismatch")
    best_perm: tuple[int, ...] | None = None
    best_val = -math.inf
    for perm in itertools.permutations(range(c)):
        val = sum(si_snr(references[i], estimates[perm[i]]) for i in range(c)) / c
        if best_perm is None or val > best_val:
            best_perm, best_val = perm, val
    return best_perm, best_val


# ---------------------------------------------------------------------------
# differentiable objective


def si_snr_loss(estimate: Tensor, reference: np.ndarray) -> Tensor:
    """Negated scale-invariant SNR as a scalar loss tensor."""
    ref = np.asarray(reference, dtype=estimate.dtype).reshape(estimate.shape)
    energy = float(ref.reshape(-1) @ ref.reshape(-1))
    if energy == 0.0:
        raise ValueError("reference signal is all zero")
    ref_t = Tensor(ref)
    omega = T.scale(T.sum_all(T.ew_mul(estimate, ref_t)), 1.0 / energy)
    target = T.ew_mul(omega, ref_t)
    residual = T.ew_sub(estimate, target)
    target_pow = T.sum_all(T.ew_mul(target, target))
    res_pow = T.sum_all(T.ew_mul(residual, residual))
    # one scale by -10/ln 10: negating is exact, so this is -(snr in dB) bit for bit
    return T.scale(T.ew_sub(T.log(target_pow), T.log(res_pow)), -10.0 / _LOG10)


def pit_si_snr_loss(estimates: Sequence[Tensor], references: Sequence[np.ndarray]) -> Tensor:
    """Permutation-invariant loss: minimum mean negated SNR over all
    assignments, enumerated exhaustively. When no loss compares lower than
    the others (every one NaN, as for an all-zero estimate), the first
    permutation's loss is returned, so the caller sees the NaN."""
    c = len(references)
    if c != len(estimates):
        raise ValueError("reference/estimate count mismatch")
    best: Tensor | None = None
    best_val = math.inf
    for perm in itertools.permutations(range(c)):
        terms = [si_snr_loss(estimates[perm[i]], references[i]) for i in range(c)]
        acc = terms[0]
        for t in terms[1:]:
            acc = T.ew_add(acc, t)
        loss = T.scale(acc, 1.0 / c)
        val = loss.item()
        if val < best_val or best is None:
            best, best_val = loss, min(best_val, val)  # a NaN keeps inf
    return best
