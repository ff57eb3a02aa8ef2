import math

import numpy as np
import pytest
from conftest import tiny_config

from avsep import trainer
from avsep.errors import ConfigError, TrainingError
from avsep.model import build_params, named_tensors
from avsep.tensor import Tensor
from avsep.trainer import (
    AdamState,
    ScheduleState,
    TrainSettings,
    adam_step,
    clip_global_norm,
    train_toy,
)


def _params(values):
    out = []
    for i, v in enumerate(values):
        t = Tensor(np.asarray(v, dtype=np.float64), requires_grad=True)
        out.append((f"p{i}", t))
    return out


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        # with bias correction, |step 1| = lr regardless of gradient scale
        params = _params([[1.0, -2.0]])
        params[0][1].grad = np.array([0.004, -37.0])
        st = AdamState(lr=0.01)
        adam_step(params, st)
        np.testing.assert_allclose(params[0][1].data, [1.0 - 0.01, -2.0 + 0.01],
                                   atol=1e-6)

    def test_zero_gradient_is_noop(self):
        params = _params([[3.0]])
        params[0][1].grad = np.zeros(1)
        before = params[0][1].data.copy()
        adam_step(params, AdamState(lr=0.1))
        np.testing.assert_array_equal(params[0][1].data, before)

    def test_missing_gradient_treated_as_zero(self):
        params = _params([[3.0]])
        before = params[0][1].data.copy()
        adam_step(params, AdamState(lr=0.1))
        np.testing.assert_array_equal(params[0][1].data, before)

    def test_nan_gradient_names_parameter(self):
        params = _params([[1.0]])
        params[0][1].grad = np.array([math.nan])
        with pytest.raises(TrainingError, match="p0"):
            adam_step(params, AdamState())

    def test_nan_in_second_of_three_names_it_and_changes_nothing(self):
        params = _params([[1.0], [2.0, 3.0], [4.0]])
        for (_, t), g in zip(params, ([0.5], [0.1, math.nan], [0.2])):
            t.grad = np.array(g)
        st = AdamState()
        with pytest.raises(TrainingError, match="'p1'"):
            adam_step(params, st)
        assert st.step == 0
        np.testing.assert_array_equal(params[0][1].data, [1.0])

    @pytest.mark.parametrize("dtypes", [(np.float32,) * 3, (np.float64,) * 3,
                                        (np.float32, np.float64, np.float32)])
    def test_matches_a_per_tensor_update_bit_for_bit(self, dtypes, rng):
        shapes = [(4, 3, 5), (7,), (2, 9)]
        params = [(f"p{i}", Tensor(rng.standard_normal(s).astype(dt), requires_grad=True))
                  for i, (s, dt) in enumerate(zip(shapes, dtypes))]
        ref = {n: t.data.copy() for n, t in params}
        ref_m = {n: np.zeros_like(d) for n, d in ref.items()}
        ref_v = {n: np.zeros_like(d) for n, d in ref.items()}
        st = AdamState(lr=0.01)
        for step in range(1, 5):
            for i, (n, t) in enumerate(params):
                # the middle parameter has no gradient on every other step
                t.grad = None if i == 1 and step % 2 else \
                    rng.standard_normal(t.shape).astype(t.dtype)
            adam_step(params, st)
            c1, c2 = 1.0 - st.beta1 ** step, 1.0 - st.beta2 ** step
            for n, t in params:
                g = np.zeros_like(ref[n]) if t.grad is None else t.grad
                m, v = ref_m[n], ref_v[n]
                m += (1.0 - st.beta1) * (g - m)
                v += (1.0 - st.beta2) * (g * g - v)
                ref[n] = ref[n] - st.lr * (m / c1) / (np.sqrt(v / c2) + st.eps)
                assert t.data.dtype == ref[n].dtype and t.data.shape == ref[n].shape
                np.testing.assert_array_equal(t.data, ref[n])
        assert st.step == 4

    def test_state_persists_across_steps(self):
        params = _params([[0.0]])
        st = AdamState(lr=0.1)
        for _ in range(3):
            params[0][1].grad = np.array([1.0])
            adam_step(params, st)
        assert st.step == 3
        assert params[0][1].data[0] == pytest.approx(-0.3, abs=1e-3)


class TestClipping:
    def test_post_norm_is_min_of_pre_and_cap(self, rng):
        params = _params([rng.standard_normal(10), rng.standard_normal(7)])
        for _, t in params:
            t.grad = 10.0 * np.ones_like(t.data)
        pre = clip_global_norm(params, max_norm=5.0)
        post = math.sqrt(sum(float((t.grad ** 2).sum()) for _, t in params))
        assert post == pytest.approx(min(pre, 5.0), abs=1e-6)

    def test_small_gradients_untouched(self):
        params = _params([[1.0]])
        params[0][1].grad = np.array([0.1])
        pre = clip_global_norm(params, max_norm=5.0)
        assert pre == pytest.approx(0.1)
        np.testing.assert_array_equal(params[0][1].grad, [0.1])

    def test_never_increases_norm(self, rng):
        for scale in (0.01, 1.0, 100.0):
            params = _params([rng.standard_normal(20)])
            params[0][1].grad = scale * rng.standard_normal(20)
            pre = clip_global_norm(params, max_norm=5.0)
            post = math.sqrt(float((params[0][1].grad ** 2).sum()))
            assert post <= pre + 1e-9

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            clip_global_norm([], max_norm=0.0)

    @pytest.mark.parametrize("scale", [0.01, 100.0])
    def test_matches_the_plain_expression_bit_for_bit(self, rng, scale):
        # the norm squares each float64 copy in place; the products, the
        # per-tensor pairwise sums and the clipped gradients stay those of
        # the expression below, for float32 and float64 gradients alike
        grads = [scale * rng.standard_normal(s).astype(dt)
                 for s, dt in (((4, 3, 5), np.float32), ((257,), np.float64),
                               ((16, 9), np.float32), ((1,), np.float64))]
        params = _params([np.zeros_like(g) for g in grads])
        for (_, t), g in zip(params, grads):
            t.grad = g.copy()
        params.append(("untaped", Tensor(np.zeros(3))))
        norm = math.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads))
        assert clip_global_norm(params, max_norm=5.0) == norm
        for (_, t), g in zip(params, grads):
            want = g * (5.0 / norm) if norm > 5.0 else g
            assert t.grad.dtype == want.dtype
            np.testing.assert_array_equal(t.grad, want)


class TestSchedule:
    def test_improvement_resets_counters(self):
        s = ScheduleState(plateau_patience=2, stop_patience=4)
        st = AdamState(lr=1.0)
        assert not s.update(10.0, st)
        assert not s.update(11.0, st)
        assert not s.update(9.0, st)  # improvement
        assert s.since_improve_lr == 0 and s.since_improve_stop == 0

    def test_lr_halves_after_plateau(self):
        s = ScheduleState(plateau_patience=2, stop_patience=10)
        st = AdamState(lr=1.0)
        s.update(10.0, st)
        s.update(10.0, st)
        s.update(10.0, st)
        assert st.lr == 0.5
        # the plateau counter restarts after a halving
        s.update(10.0, st)
        assert st.lr == 0.5
        s.update(10.0, st)
        assert st.lr == 0.25

    def test_early_stop_counter_independent(self):
        s = ScheduleState(plateau_patience=2, stop_patience=5)
        st = AdamState(lr=1.0)
        stops = [s.update(10.0, st) for _ in range(7)]
        assert stops[:5] == [False] * 5
        assert stops[5] is True  # 5 epochs without improvement after the best

    def test_tiny_decrease_is_not_improvement(self):
        s = ScheduleState(plateau_patience=1, stop_patience=10, min_delta=1e-6)
        st = AdamState(lr=1.0)
        s.update(1.0, st)
        s.update(1.0 - 1e-9, st)
        assert st.lr == 0.5


class TestTrainToy:
    def _settings(self, **over):
        base = dict(max_steps=10, steps_per_epoch=5, seed=0,
                    mixture_seconds=0.1, target_si_snri_db=1e9)
        base.update(over)
        return TrainSettings(**base)

    @pytest.mark.parametrize("field", ["max_steps", "steps_per_epoch"])
    def test_fewer_than_one_step_rejected(self, field):
        with pytest.raises(ConfigError, match=field):
            self._settings(**{field: 0})

    def test_deterministic_given_seed(self):
        cfg = tiny_config()
        a = train_toy(cfg, self._settings())
        b = train_toy(cfg, self._settings())
        assert [r["train_loss"] for r in a.history] == [r["train_loss"] for r in b.history]
        for (_, t1), (_, t2) in zip(named_tensors(a.params), named_tensors(b.params)):
            np.testing.assert_array_equal(t1.data, t2.data)

    def test_dropout_applies_in_training(self):
        runs = [train_toy(tiny_config(dropout_p=d), self._settings(max_steps=5))
                for d in (0.0, 0.5)]
        assert any(np.any(a.data != b.data) for (_, a), (_, b)
                   in zip(named_tensors(runs[0].params), named_tensors(runs[1].params)))

    def test_history_schema(self):
        res = train_toy(tiny_config(), self._settings())
        assert res.steps_run == 10
        assert len(res.history) == 2
        for row in res.history:
            assert set(row) == {"epoch", "train_loss", "val_si_snri", "lr", "grad_norm", "step_s"}
            assert math.isfinite(row["grad_norm"]) and row["grad_norm"] > 0
            assert math.isfinite(row["step_s"]) and row["step_s"] > 0

    def test_loss_decreases(self):
        res = train_toy(tiny_config(), self._settings(max_steps=50, steps_per_epoch=10))
        assert res.history[-1]["train_loss"] < res.history[0]["train_loss"]

    def test_audio_only_mode_runs(self):
        cfg = tiny_config(audio_only=True, n_speakers=2)
        res = train_toy(cfg, self._settings())
        assert res.video_feat is None
        assert math.isfinite(res.final_si_snri_db)

    def test_dynamic_mix_mode_runs(self):
        res = train_toy(tiny_config(), self._settings(dynamic_mix=True, pool_size=3))
        assert res.steps_run == 10

    def test_all_zero_output_is_a_non_finite_loss_error(self, monkeypatch):
        # a zero decoder makes every waveform zero and every PIT loss NaN
        def zero_decoder(*args, **kw):
            p = build_params(*args, **kw)
            p.decoder.weight.data[...] = 0.0
            return p

        monkeypatch.setattr(trainer, "build_params", zero_decoder)
        with pytest.raises(TrainingError, match="non-finite loss at step 0"), \
                np.errstate(divide="ignore", invalid="ignore"):
            train_toy(tiny_config(), self._settings())
