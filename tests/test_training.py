"""Optimizer, pretraining loop, and conv-head calibration contracts."""

import numpy as np
import pytest

from convkv.cache import CacheError
from convkv.corpus import corpus_to_ids, make_recall_corpus, make_repeated_byte_corpus
from convkv.model import ModelConfig, ModelParams, sequence_loss
from convkv.numerics import GradTape, Tensor2, backward
from convkv.policies import PolicySpec
from convkv.training import (
    AdamState,
    TrainConfig,
    TrainingDivergedError,
    adam_step,
    calibrate_conv_heads,
    pretrain,
    write_loss_trace,
)

import oracles


def one_param(value=0.0):
    t = Tensor2(np.array([[value]]), requires_grad=True)
    return [("p", t)], t


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        params, t = one_param(1.5)
        state = AdamState()
        for _ in range(5):
            adam_step(params, {"p": np.zeros((1, 1))}, state, lr=0.1)
        assert t.data[0, 0] == 1.5

    def test_constant_gradient_approaches_signed_lr_steps(self):
        params, t = one_param(0.0)
        state = AdamState()
        lr = 0.01
        prev = 0.0
        for i in range(200):
            adam_step(params, {"p": np.full((1, 1), -3.0)}, state, lr=lr)
            step = t.data[0, 0] - prev
            prev = t.data[0, 0]
        # late steps converge to lr * sign(g) = +lr
        assert abs(step - lr) < 1e-6

    def test_matches_scalar_reference_oracle(self):
        rng = np.random.default_rng(0)
        grads = list(rng.standard_normal(25))
        params, t = one_param(0.0)
        state = AdamState()
        for g in grads:
            adam_step(params, {"p": np.array([[g]])}, state, lr=0.05)
        assert abs(t.data[0, 0] - oracles.adam_scalar(grads, lr=0.05)) < 1e-12

    def test_nonpositive_lr_rejected(self):
        params, _ = one_param()
        with pytest.raises(ValueError):
            adam_step(params, {}, AdamState(), lr=0.0)


SMALL = ModelConfig(d_model=8, n_layers=1, n_heads=1, head_dim=8, max_context=128)


def small_cfg(**kw):
    base = dict(
        learning_rate_base=3e-3, steps=10, batch_size=4,
        context_length=16, seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestPretrain:
    def test_default_lr_ratio_is_one_thousand(self):
        cfg = TrainConfig()
        assert cfg.learning_rate_conv / cfg.learning_rate_base == pytest.approx(1000.0)

    def test_one_step_changes_params_once(self):
        ids = corpus_to_ids(make_repeated_byte_corpus(512))
        cfg = small_cfg(steps=1)
        params, trace = pretrain(ids, SMALL, cfg)
        init = ModelParams.init(SMALL, seed=cfg.seed)
        assert len(trace) == 1
        diffs = [
            np.abs(a.data - b.data).max()
            for (_, a), (_, b) in zip(params.named_base(), init.named_base())
        ]
        assert max(diffs) > 0

    def test_repeated_byte_corpus_drives_loss_to_zero(self):
        ids = corpus_to_ids(make_repeated_byte_corpus(2048))
        cfg = small_cfg(steps=200, learning_rate_base=2e-2)
        _, trace = pretrain(ids, SMALL, cfg)
        assert trace[-1][1] < 0.01

    def test_fixed_seed_reproduces_loss_trace(self):
        ids = corpus_to_ids(make_recall_corpus(32, seed=1))
        a = pretrain(ids, SMALL, small_cfg(steps=5))[1]
        b = pretrain(ids, SMALL, small_cfg(steps=5))[1]
        assert a == b

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_divergence_aborts_with_diagnostic(self):
        ids = corpus_to_ids(make_recall_corpus(8, seed=2))
        cfg = small_cfg(steps=5, learning_rate_base=1e200)
        with pytest.raises(TrainingDivergedError, match="step"):
            pretrain(ids, SMALL, cfg)

    def test_linear_decay_schedule(self):
        ids = corpus_to_ids(make_recall_corpus(16, seed=3))
        _, trace = pretrain(ids, SMALL, small_cfg(steps=4, learning_rate_base=1e-3))
        lrs = [lr for _, _, lr in trace]
        assert lrs[0] == 1e-3 and lrs[-1] == pytest.approx(1e-3 * 0.25)
        assert all(a > b for a, b in zip(lrs, lrs[1:]))


class TestCalibration:
    def make_base(self):
        params = ModelParams.init(SMALL, seed=7)
        return params

    def cal_cfg(self, **kw):
        base = dict(steps=5, batch_size=2, context_length=16, seed=11)
        base.update(kw)
        return TrainConfig(**base)

    def test_zero_steps_leave_heads_at_init(self):
        params = self.make_base()
        ids = corpus_to_ids(make_recall_corpus(16, seed=4))
        calibrate_conv_heads(
            params, ids, PolicySpec("lococo", capacity=8), 4,
            self.cal_cfg(steps=0), kernel_size=5,
        )
        fresh = ModelParams.init(SMALL, seed=7)
        fresh.install_conv_heads(slots=8, kernel_size=5, seed=11)
        assert np.array_equal(
            params.conv_heads[0].kernels.weights.data,
            fresh.conv_heads[0].kernels.weights.data,
        )

    def test_base_weights_frozen_byte_identical(self):
        params = self.make_base()
        before = params.base_fingerprint()
        ids = corpus_to_ids(make_recall_corpus(32, seed=5))
        calibrate_conv_heads(
            params, ids, PolicySpec("lococo", capacity=8), 4,
            self.cal_cfg(steps=8), kernel_size=5,
        )
        assert params.base_fingerprint() == before

    def test_calibration_changes_only_conv_heads(self):
        params = self.make_base()
        ids = corpus_to_ids(make_recall_corpus(32, seed=5))
        calibrate_conv_heads(
            params, ids, PolicySpec("lococo", capacity=8), 4,
            self.cal_cfg(steps=8), kernel_size=5,
        )
        fresh_heads = ModelParams.init(SMALL, seed=7)
        fresh_heads.install_conv_heads(slots=8, kernel_size=5, seed=11)
        moved = np.abs(
            params.conv_heads[0].kernels.weights.data
            - fresh_heads.conv_heads[0].kernels.weights.data
        ).max()
        assert moved > 0

    def test_capacity_below_block_size_rejected(self):
        params = self.make_base()
        ids = corpus_to_ids(make_recall_corpus(16, seed=6))
        with pytest.raises(CacheError, match="rejected"):
            calibrate_conv_heads(
                params, ids, PolicySpec("lococo", capacity=2), 4, self.cal_cfg()
            )

    def test_every_conv_parameter_gets_gradient_somewhere(self):
        params = self.make_base()
        params.install_conv_heads(slots=8, kernel_size=5, seed=3)
        trainable = params.set_trainable("conv")
        rng = np.random.default_rng(12)
        spec = PolicySpec("lococo", capacity=8)
        touched = {name: np.zeros_like(t.data, dtype=bool) for name, t in trainable}
        for batch in range(4):
            tokens = rng.integers(0, 256, size=32)
            with GradTape() as tape:
                loss = sequence_loss(params, tokens, spec, 4)
            grads = backward(tape, loss)
            for name, t in trainable:
                if t in grads:
                    touched[name] |= grads[t] != 0.0
        params.set_trainable("none")
        for name, hits in touched.items():
            assert hits.all(), f"{name}: {(~hits).sum()} parameters never saw a gradient"

    def test_end_to_end_gradcheck_small_instance(self):
        # d=4, capacity=4, block=2, 12 tokens; probes 5 random conv parameters
        config = ModelConfig(d_model=4, n_layers=2, n_heads=1, head_dim=4, max_context=64)
        params = ModelParams.init(config, seed=5)
        params.install_conv_heads(slots=4, kernel_size=5, seed=6)
        trainable = params.set_trainable("conv")
        spec = PolicySpec("lococo", capacity=4)
        tokens = np.random.default_rng(8).integers(0, 256, size=12)

        def loss_value():
            return sequence_loss(params, tokens, spec, 2).data[0, 0]

        with GradTape() as tape:
            loss = sequence_loss(params, tokens, spec, 2)
        grads = backward(tape, loss)
        rng = np.random.default_rng(9)
        h = 1e-5
        for _ in range(5):
            name, tensor = trainable[rng.integers(len(trainable))]
            g = grads[tensor]
            idx = tuple(rng.integers(s) for s in tensor.shape)
            orig = tensor.data[idx]
            tensor.data[idx] = orig + h
            hi = loss_value()
            tensor.data[idx] = orig - h
            lo = loss_value()
            tensor.data[idx] = orig
            fd = (hi - lo) / (2 * h)
            rel = abs(g[idx] - fd) / (abs(g[idx]) + 1e-8)
            assert rel < 1e-4, f"{name}{idx}: analytic={g[idx]}, fd={fd}"
        params.set_trainable("none")

    def test_detach_flag_changes_gradients_but_trains(self):
        params = self.make_base()
        ids = corpus_to_ids(make_recall_corpus(32, seed=13))
        trace_full = calibrate_conv_heads(
            params, ids, PolicySpec("lococo", capacity=8), 4,
            self.cal_cfg(steps=3), kernel_size=5,
        )
        params2 = self.make_base()
        trace_detached = calibrate_conv_heads(
            params2, ids, PolicySpec("lococo", capacity=8), 4,
            self.cal_cfg(steps=3, detach_cache_between_blocks=True), kernel_size=5,
        )
        assert trace_full[0][1] == trace_detached[0][1]  # same forward at init
        assert trace_full[1:] != trace_detached[1:]  # different gradients afterwards

    def test_calibration_trace_deterministic(self):
        ids = corpus_to_ids(make_recall_corpus(32, seed=14))
        traces = []
        for _ in range(2):
            params = self.make_base()
            traces.append(
                calibrate_conv_heads(
                    params, ids, PolicySpec("lococo", capacity=8), 4,
                    self.cal_cfg(steps=4), kernel_size=5,
                )
            )
        assert traces[0] == traces[1]


class TestLossTrace:
    def test_csv_round_trip_exact(self, tmp_path):
        trace = [(0, 1.2345678901234567, 0.001), (1, 0.9999999999999999, 0.0005)]
        path = tmp_path / "trace.csv"
        write_loss_trace(path, trace)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,loss,lr"
        for (step, loss, lr), line in zip(trace, lines[1:]):
            s, l, r = line.split(",")
            assert int(s) == step and float(l) == loss and float(r) == lr
