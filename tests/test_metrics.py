import itertools
import math

import numpy as np
import pytest

from avsep.metrics import (
    pit_best,
    pit_si_snr_loss,
    sdr,
    sdri,
    si_snr,
    si_snr_loss,
    si_snri,
)
from avsep.tensor import Tensor, finite_difference_grad


class TestSiSnr:
    def test_canonical_example(self):
        # est [1,1] vs ref [1,0]: projection [1,0], residual [0,1] -> 0 dB
        assert si_snr([1.0, 0.0], [1.0, 1.0]) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("c", [0.5, 3.0, 100.0])
    def test_scale_invariance(self, c, rng):
        ref = rng.standard_normal(256)
        est = ref + 0.1 * rng.standard_normal(256)
        assert si_snr(ref, c * est) == pytest.approx(si_snr(ref, est), abs=1e-9)

    def test_perfect_estimate_is_inf(self, rng):
        ref = rng.standard_normal(64)
        assert si_snr(ref, ref) == math.inf
        assert si_snr(ref, 2.0 * ref) == math.inf  # scale invariant

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            si_snr(np.zeros(8), np.ones(8))

    def test_estimate_without_target_component_is_minus_inf(self, rng):
        ref = rng.standard_normal(64)
        assert si_snr(ref, np.zeros(64)) == -math.inf
        assert si_snr([1.0, 0.0], [0.0, 3.0]) == -math.inf  # orthogonal

    def test_best_output_is_never_a_silent_one(self, rng):
        # eval scores a multi-speaker model on its output nearest the reference
        ref = rng.standard_normal(100)
        noisy = ref + rng.standard_normal(100)
        outputs = [np.zeros(100), noisy]
        assert max(outputs, key=lambda e: si_snr(ref, e)) is noisy

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            si_snr(np.ones(4), np.ones(5))
        with pytest.raises(ValueError, match="length mismatch"):
            sdr(np.ones(4), np.ones(5))

    def test_loss_names_a_length_mismatch(self):
        # of another size, not only another shape: no reshape error leaks out
        with pytest.raises(ValueError, match="^reference/estimate length mismatch$"):
            si_snr_loss(Tensor(np.ones((1, 10))), np.ones(12))

    @pytest.mark.parametrize("metric", [si_snr, sdr])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_signal_rejected(self, metric, bad):
        est = np.ones(8)
        est[3] = bad
        with pytest.raises(ValueError, match="non-finite signal"):
            metric(np.arange(1.0, 9.0), est)
        with pytest.raises(ValueError, match="non-finite signal"):
            metric(est, np.arange(1.0, 9.0))

    def test_improvement_vanishes_for_mixture(self, rng):
        ref = rng.standard_normal(128)
        mix = ref + rng.standard_normal(128)
        assert si_snri(mix, ref, mix) == pytest.approx(0.0, abs=1e-12)

    def test_same_sentinel_is_no_improvement(self):
        # inf - inf and -inf - -inf would be NaN
        ref, orth = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert si_snri(ref, ref, ref) == 0.0
        assert si_snri(orth, ref, orth) == 0.0
        assert si_snri(orth, ref, ref) == math.inf


class TestSdr:
    def test_canonical_example(self):
        assert sdr([1.0, 0.0], [1.0, 1.0]) == pytest.approx(0.0, abs=1e-9)

    def test_not_scale_invariant(self, rng):
        ref = rng.standard_normal(64)
        est = ref + 0.1 * rng.standard_normal(64)
        assert abs(sdr(ref, 2.0 * est) - sdr(ref, est)) > 1.0

    def test_improvement_vanishes_for_mixture(self, rng):
        ref = rng.standard_normal(128)
        mix = ref + 0.5 * rng.standard_normal(128)
        assert sdri(mix, ref, mix) == pytest.approx(0.0, abs=1e-12)

    def test_same_sentinel_is_no_improvement(self):
        ref = np.array([1.0, 2.0])
        assert sdri(ref, ref, ref) == 0.0


def pit_reference(references, estimates, metric):
    """Independent enumeration oracle, written directly from the
    definition: best mean metric over all assignments."""
    best = None
    for perm in itertools.permutations(range(len(references))):
        v = np.mean([metric(references[i], estimates[perm[i]])
                     for i in range(len(references))])
        if best is None or v > best[1]:
            best = (perm, v)
    return best


class TestPit:
    @pytest.mark.parametrize("n_sources", [2, 3])
    def test_matches_enumeration_oracle(self, n_sources):
        rng = np.random.default_rng(7)
        for _ in range(100):
            refs = [rng.standard_normal(32) for _ in range(n_sources)]
            perm = rng.permutation(n_sources)
            ests = [refs[perm[k]] + 0.3 * rng.standard_normal(32)
                    for k in range(n_sources)]
            got_perm, got_val = pit_best(refs, ests)
            want_perm, want_val = pit_reference(refs, ests, si_snr)
            assert got_val == pytest.approx(want_val, rel=1e-12)
            if got_perm != want_perm:
                # metric tie: both permutations must score identically
                tied = np.mean([si_snr(refs[i], ests[got_perm[i]])
                                for i in range(n_sources)])
                assert tied == pytest.approx(want_val, rel=1e-12)

    def test_identity_recovered(self, rng):
        refs = [rng.standard_normal(16), rng.standard_normal(16)]
        perm, _ = pit_best(refs, refs)
        assert perm == (0, 1)

    def test_swap_recovered(self, rng):
        a, b = rng.standard_normal(16), rng.standard_normal(16)
        perm, _ = pit_best([a, b], [b, a])
        assert perm == (1, 0)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pit_best([np.ones(4)], [np.ones(4), np.ones(4)])
        with pytest.raises(ValueError, match="count mismatch"):
            pit_si_snr_loss([Tensor(np.ones((1, 4)))], [np.ones(4), np.ones(4)])


class TestDifferentiableLoss:
    def test_value_is_negated_si_snr(self, rng):
        ref = rng.standard_normal(40)
        est = ref + 0.2 * rng.standard_normal(40)
        loss = si_snr_loss(Tensor(est[None, :], dtype=np.float64), ref[None, :])
        assert loss.item() == pytest.approx(-si_snr(ref, est), rel=1e-10)

    def test_gradient_matches_finite_difference(self, rng):
        ref = rng.standard_normal(24)
        est = Tensor(ref[None, :] + 0.3 * rng.standard_normal((1, 24)),
                     dtype=np.float64, requires_grad=True)
        si_snr_loss(est, ref[None, :]).backward()

        def f(x):
            return si_snr_loss(Tensor(x), ref[None, :]).item()

        num = finite_difference_grad(f, est.data)
        assert np.max(np.abs(est.grad - num)) / np.max(np.abs(num)) < 1e-6

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            si_snr_loss(Tensor(np.ones((1, 8))), np.zeros((1, 8)))

    def test_pit_loss_is_min_over_permutations(self, rng):
        refs = [rng.standard_normal(32), rng.standard_normal(32)]
        ests = [Tensor((refs[1] + 0.1 * rng.standard_normal(32))[None, :],
                       dtype=np.float64, requires_grad=True),
                Tensor((refs[0] + 0.1 * rng.standard_normal(32))[None, :],
                       dtype=np.float64, requires_grad=True)]
        loss = pit_si_snr_loss(ests, [r[None, :] for r in refs])
        vals = []
        for perm in itertools.permutations(range(2)):
            v = np.mean([si_snr_loss(ests[perm[i]], refs[i][None, :]).item()
                         for i in range(2)])
            vals.append(v)
        assert loss.item() == pytest.approx(min(vals), rel=1e-12)

    @pytest.mark.parametrize("n_sources", [1, 2])
    def test_pit_loss_of_all_zero_estimates_is_nan_not_none(self, n_sources, rng):
        # 0/0 in every permutation's SI-SNR, so none compares lower: the
        # first permutation's NaN loss comes back for the caller to reject
        refs = [rng.standard_normal((1, 100)) for _ in range(n_sources)]
        ests = [Tensor(np.zeros((1, 100))) for _ in range(n_sources)]
        with np.errstate(divide="ignore", invalid="ignore"):
            loss = pit_si_snr_loss(ests, refs)
        assert isinstance(loss, Tensor) and math.isnan(loss.item())
