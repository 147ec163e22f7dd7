"""Optimizer, pretraining loop, and conv-head calibration contracts."""

import numpy as np
import pytest

from convkv.cache import CacheError
from convkv.corpus import corpus_to_ids, load_corpus
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
from corpora import make_recall_corpus, make_repeated_byte_corpus


def one_param(value=0.0):
    t = Tensor2(np.array([[value]]), requires_grad=True)
    return [("p", t)], t


class TestAdam:
    @pytest.mark.parametrize("grad", [1e300, 1e155])
    def test_overflowing_second_moment_raises(self, grad):
        # 1e300 squares to inf in the moment; 1e155 leaves it finite, but not v / (1 - b2)
        t = Tensor2(np.ones((2, 2)), requires_grad=True)
        state = AdamState()
        adam_step([("w", t)], {"w": np.ones((2, 2))}, state, lr=0.1)
        with pytest.raises(TrainingDivergedError, match="w: Adam's second moment overflowed at step 1"):
            adam_step([("w", t)], {"w": np.full((2, 2), grad)}, state, lr=0.1)

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

    def test_in_place_update_equals_the_array_formula(self):
        # b gets no gradient from step 2 on, so its None path runs on moments that are not 0
        rng = np.random.default_rng(18)
        start = {name: rng.standard_normal((64, 2688)) for name in ("a", "b")}
        grads = {name: [rng.standard_normal((64, 2688)) * 10.0 ** -i for i in range(5)] for name in start}
        grads["b"][2:] = [None] * 3
        params = [(name, Tensor2(value, requires_grad=True)) for name, value in start.items()]
        state = AdamState()
        for step in range(5):
            given = {name: grads[name][step] for name in start if grads[name][step] is not None}
            adam_step(params, given, state, lr=0.05)
        for name, t in params:
            assert np.array_equal(t.data, oracles.adam_arrays(start[name], grads[name], lr=0.05))

    def test_nonpositive_lr_rejected(self):
        # NaN compares False with 0 both ways: taken, it would write NaN into every weight
        for lr in (0.0, float("nan")):
            params, t = one_param(1.5)
            state = AdamState()
            with pytest.raises(ValueError, match="learning rate must be positive"):
                adam_step(params, {"p": np.ones((1, 1))}, state, lr=lr)
            assert t.data[0, 0] == 1.5
            assert state.t == 0 and not state.m and not state.v


SMALL = ModelConfig(n_layers=1, n_heads=1, head_dim=8, max_context=128)


def small_cfg(**kw):
    base = dict(
        learning_rate_base=3e-3, steps=10, batch_size=4,
        context_length=16, seed=0,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("batch_size", 0),
        ("batch_size", -2),
        ("steps", -1),
        ("seed", -1),
        ("context_length", 1),
        ("learning_rate_base", 0.0),
        ("learning_rate_conv", -1e-3),
        # a float count used to pass and fail in pretrain with an untyped
        # TypeError or IndexError; True passed as the count 1
        ("steps", 1.5),
        ("batch_size", 2.5),
        ("context_length", 16.0),
        ("seed", 1.5),
        ("batch_size", True),
        ("steps", True),
    ])
    def test_bad_size_raises_value_error_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_zero_steps_and_smallest_sizes_are_valid(self):
        TrainConfig(steps=0, batch_size=1, context_length=2)
        # numpy's integers are taken, as Python ints
        config = TrainConfig(steps=np.int64(0), batch_size=np.int32(1),
                             context_length=np.int64(2), seed=np.uint8(3))
        assert config == TrainConfig(steps=0, batch_size=1, context_length=2, seed=3)
        assert all(type(getattr(config, name)) is int
                   for name in ("steps", "batch_size", "context_length", "seed"))


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

    @pytest.mark.parametrize("n_ids, match", [
        (0, "empty corpus"),
        (10, "corpus of 10 tokens is shorter than context 16"),
    ], ids=["empty", "shorter-than-context"])
    def test_corpus_too_short_rejected(self, n_ids, match):
        with pytest.raises(ValueError, match=match):
            pretrain(np.zeros(n_ids, dtype=np.int64), SMALL, small_cfg())

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

    def test_context_that_never_merges_rejected(self):
        # the last of 4 blocks of 8 never reaches the cache, and 24 columns fit in 24
        params = self.make_base()
        ids = corpus_to_ids(make_recall_corpus(16, seed=6))
        with pytest.raises(CacheError, match="context 32 never merges: it must exceed "
                                             "capacity 24 \\+ block size 8"):
            calibrate_conv_heads(params, ids, PolicySpec("lococo", capacity=24), 8,
                                 self.cal_cfg(context_length=32))
        assert params.conv_heads is None
        trace = calibrate_conv_heads(params, ids, PolicySpec("lococo", capacity=24), 8,
                                     self.cal_cfg(context_length=40, steps=1))
        assert len(trace) == 1

    def test_overflowing_gradient_named_by_parameter_and_step(self):
        # a finite forward pass whose loss gradient squares past float64 in Adam
        config = ModelConfig(n_layers=2, n_heads=2, head_dim=8, max_context=64)
        params = ModelParams.init(config, seed=7)
        params.final_gain.data[:] = 1e306
        ids = corpus_to_ids(make_recall_corpus(16, seed=6))
        with pytest.raises(TrainingDivergedError,
                           match="conv_heads.0.kernels: Adam's second moment overflowed at step 0"):
            calibrate_conv_heads(params, ids, PolicySpec("lococo", capacity=8), 4,
                                 self.cal_cfg(steps=2), kernel_size=5)

    @pytest.mark.parametrize("kernel_size, relu_position", [(7, "post"), (21, "post"),
                                                             (5, "pre")])
    def test_heads_of_another_shape_rejected(self, kernel_size, relu_position):
        # heads the model has are trained as they are, so the asked-for shape must be theirs
        params = self.make_base()
        params.install_conv_heads(slots=8, kernel_size=5, seed=3)
        before = params.conv_heads[0].kernels.weights.data.copy()
        ids = corpus_to_ids(make_recall_corpus(16, seed=6))
        with pytest.raises(CacheError, match=f"kernel size {kernel_size} and relu_position "
                                             f"'{relu_position}', but the model's head at layer 0 "
                                             "has 5 and 'post'"):
            calibrate_conv_heads(params, ids, PolicySpec("lococo", capacity=8), 4,
                                 self.cal_cfg(steps=1), kernel_size=kernel_size,
                                 relu_position=relu_position)
        assert np.array_equal(params.conv_heads[0].kernels.weights.data, before)
        trace = calibrate_conv_heads(params, ids, PolicySpec("lococo", capacity=8), 4,
                                     self.cal_cfg(steps=1), kernel_size=5)
        assert len(trace) == 1 and params.conv_heads[0].kernel_size == 5

    def test_eviction_policy_and_ragged_context_rejected(self):
        params = self.make_base()
        ids = corpus_to_ids(make_recall_corpus(16, seed=6))
        with pytest.raises(CacheError, match="needs a merging policy, got 'h2o'"):
            calibrate_conv_heads(params, ids, PolicySpec("h2o", capacity=8), 4, self.cal_cfg())
        with pytest.raises(ValueError, match="context 18 must be a multiple of block size 4"):
            calibrate_conv_heads(params, ids, PolicySpec("lococo", capacity=8), 4,
                                 self.cal_cfg(context_length=18))

    def test_every_conv_parameter_gets_gradient_somewhere(self):
        params = self.make_base()
        params.install_conv_heads(slots=8, kernel_size=5, seed=3)
        trainable = params.named_conv()
        for _, t in trainable:
            t.requires_grad = True
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
        for name, hits in touched.items():
            assert hits.all(), f"{name}: {(~hits).sum()} parameters never saw a gradient"

    # 3 layers give the two threads of the grouped conv unequal shares
    @pytest.mark.parametrize("n_layers", [2, 3])
    def test_end_to_end_gradcheck_small_instance(self, n_layers):
        # d=4, capacity=4, block=2, 12 tokens; probes 5 random conv parameters, with
        # the conv groups on both threads, as a multi-token feed runs them
        config = ModelConfig(n_layers=n_layers, n_heads=1, head_dim=4, max_context=64)
        params = ModelParams.init(config, seed=5)
        params.install_conv_heads(slots=4, kernel_size=5, seed=6)
        trainable = params.named_conv()
        for _, t in trainable:
            t.requires_grad = True
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


# losses of a 3-step calibration, then kernel entries [0, 0] and [-1, -1] of
# each layer's head and the sum of both, per merging policy; frozen at the
# commit before calibration stopped updating the caches after a sequence's
# last block, which must move none of them
CALIBRATION_PROBE = {
    "lococo": [
        5.524947302214055,
        5.560609052162849,
        5.5545247036227945,
        0.08607453450186457,
        -0.0869385175503779,
        -0.12583185918063636,
        0.035238545275614444,
        -4.972488130962181,
    ],
    "lococo+h2o": [
        5.524617624640491,
        5.560640511947426,
        5.554750603013597,
        0.0882065734888821,
        0.009088520860073234,
        0.028752384136534054,
        0.09881228705079072,
        1.2842871227167274,
    ],
    "lococo+sink": [
        5.524910493705878,
        5.5605812287527545,
        5.554585074665814,
        0.08548925162147902,
        0.08288190728654755,
        0.061770819885054,
        0.1320508835801406,
        0.8273663060715495,
    ],
}
PROBE_MODEL = ModelConfig(n_layers=2, n_heads=2, head_dim=4, max_context=64)
PROBE_POLICIES = {
    "lococo": PolicySpec("lococo", capacity=8),
    "lococo+h2o": PolicySpec("lococo+h2o", capacity=8, reserved=2),
    "lococo+sink": PolicySpec("lococo+sink", capacity=8, n_sink=1),
}


@pytest.mark.parametrize("name", sorted(PROBE_POLICIES))
def test_calibration_regression_locked(name):
    # 4 blocks of 4 per sequence into 8 slots: the last two blocks merge
    params = ModelParams.init(PROBE_MODEL, seed=7)
    ids = corpus_to_ids(make_recall_corpus(32, seed=5))
    trace = calibrate_conv_heads(
        params, ids, PROBE_POLICIES[name], 4,
        TrainConfig(steps=3, batch_size=2, context_length=16, seed=11), kernel_size=5,
    )
    w0, w1 = (head.kernels.weights.data for head in params.conv_heads)
    probe = np.array(
        [loss for _, loss, _ in trace]
        + [w0[0, 0], w0[-1, -1], w1[0, 0], w1[-1, -1], float(w0.sum() + w1.sum())]
    )
    assert np.max(np.abs(probe - CALIBRATION_PROBE[name])) < 1e-10


class TestCorpus:
    def test_recall_document_needs_room_for_filler(self):
        with pytest.raises(ValueError, match="doc_len 23 too small for key_len 8"):
            make_recall_corpus(2, doc_len=23)

    def test_empty_corpus_file_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="is empty"):
            load_corpus(path)


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
